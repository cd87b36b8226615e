// Package retbuf flags exported functions and methods on the hot path that
// return a slice aliasing reusable memory without saying so.
//
// The class it guards against: a bit writer's Bytes() returned the writer's
// live buffer to avoid a copy, and a caller that held the slice across the
// next Write saw it mutate underfoot. Zero-copy returns are
// deliberate on the hot path, so the fix is not to forbid them but to make
// the contract explicit: any exported function that returns memory someone
// else may reuse must carry a doc comment containing "aliases:" describing
// the lifetime (e.g. "// aliases: valid until the next Write").
//
// Two kinds of reusable memory are tracked. A method's receiver: a return
// rooted in it — a receiver field (w.buf), a slice of one (w.buf[:n]), an
// append whose destination is one, or a local alias of one — can be
// overwritten by the next call on the same value. And a value taken from a
// sync.Pool: a return rooted in pool.Get() — directly, through a type
// assertion, or through a same-package function that returns one (the
// getScratch() idiom) — goes back into circulation when the scratch it lives
// in is put back, and the next user of that scratch overwrites it.
//
// The analyzer runs on the packages whose buffers sit on the decode/serve
// hot path — internal/bitio, internal/huffman, internal/cache, internal/sz2,
// internal/sz3, internal/field, internal/flatepool, internal/wire — and
// reports exported functions and methods whose returned slice is rooted in
// either, unless the doc comment contains "aliases:". Returning a fresh
// allocation (make + copy, or append to a caller-provided destination) is
// always fine.
package retbuf

import (
	"go/ast"
	"go/types"
	"strings"

	"repro/internal/lint/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "retbuf",
	Doc: "exported functions on hot-path packages must not return slices aliasing " +
		"receiver-owned or pooled buffers unless the doc comment documents it with \"aliases:\"",
	Run: run,
}

// hotPkgs are the packages whose exported API the rule applies to; their
// buffers are reused across calls on the serve path.
var hotPkgs = map[string]bool{
	"repro/internal/bitio":   true,
	"repro/internal/huffman": true,
	"repro/internal/cache":   true,
	"repro/internal/sz2":     true,
	"repro/internal/sz3":     true,
	"repro/internal/field":   true,
	// Inflated.Bytes returns the pooled output buffer.
	"repro/internal/flatepool": true,
	// Reader.Bytes, Chunk and Rest return slices of the input.
	"repro/internal/wire": true,
}

func run(pass *analysis.Pass) error {
	if !hotPkgs[pass.Pkg.Path()] {
		return nil
	}
	getters := poolGetters(pass)
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !fd.Name.IsExported() {
				continue
			}
			if !returnsSlice(pass, fd) {
				continue
			}
			if docAliases(fd.Doc) {
				continue
			}
			checkFunc(pass, fd, getters)
		}
	}
	return nil
}

// returnsSlice reports whether any result of fd is a slice type.
func returnsSlice(pass *analysis.Pass, fd *ast.FuncDecl) bool {
	if fd.Type.Results == nil {
		return false
	}
	for _, field := range fd.Type.Results.List {
		if tv, ok := pass.TypesInfo.Types[field.Type]; ok {
			if _, isSlice := tv.Type.Underlying().(*types.Slice); isSlice {
				return true
			}
		}
	}
	return false
}

// docAliases reports whether the doc comment documents the aliasing.
func docAliases(doc *ast.CommentGroup) bool {
	if doc == nil {
		return false
	}
	return strings.Contains(doc.Text(), "aliases:")
}

// root is the kind of reusable memory an expression is rooted in.
type root int

const (
	unrooted root = iota
	receiverRoot
	poolRoot
)

// tracker decides, for one function body, which expressions are rooted in
// its receiver or in a pooled value.
type tracker struct {
	pass    *analysis.Pass
	recv    types.Object          // nil for functions and anonymous receivers
	getters map[types.Object]bool // same-package functions returning pooled values
	aliased map[types.Object]root // locals holding rooted values
}

// walk visits fd's body in source order, updating which locals alias rooted
// memory, and calls report for every returned expression.
func (tr *tracker) walk(fd *ast.FuncDecl, report func(res ast.Expr)) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false // closures escape this simple model
		case *ast.AssignStmt:
			if len(n.Lhs) != len(n.Rhs) {
				return true
			}
			for i, lhs := range n.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok || id.Name == "_" {
					continue
				}
				obj := tr.pass.TypesInfo.Defs[id]
				if obj == nil {
					obj = tr.pass.TypesInfo.Uses[id]
				}
				if obj == nil {
					continue
				}
				if r := tr.rooted(n.Rhs[i]); r != unrooted {
					tr.aliased[obj] = r
				} else {
					delete(tr.aliased, obj)
				}
			}
		case *ast.ReturnStmt:
			for _, res := range n.Results {
				report(res)
			}
		}
		return true
	})
}

// checkFunc reports returns of slices rooted in fd's receiver or in a pooled
// value.
func checkFunc(pass *analysis.Pass, fd *ast.FuncDecl, getters map[types.Object]bool) {
	tr := &tracker{pass: pass, recv: receiverObj(pass, fd), getters: getters, aliased: map[types.Object]root{}}
	tr.walk(fd, func(res ast.Expr) {
		if tv, ok := pass.TypesInfo.Types[res]; ok {
			if _, isSlice := tv.Type.Underlying().(*types.Slice); !isSlice {
				return
			}
		}
		switch tr.rooted(res) {
		case receiverRoot:
			pass.Reportf(res.Pos(), "%s returns a slice aliasing an internal buffer; "+
				"document the lifetime with an \"aliases:\" doc comment or return a copy",
				fd.Name.Name)
		case poolRoot:
			pass.Reportf(res.Pos(), "%s returns a slice aliasing a buffer taken from a sync.Pool; "+
				"document the lifetime with an \"aliases:\" doc comment or return a copy",
				fd.Name.Name)
		}
	})
}

// poolGetters returns the package's functions and methods that return a
// value rooted in a sync.Pool, following same-package wrappers of wrappers.
func poolGetters(pass *analysis.Pass) map[types.Object]bool {
	getters := map[types.Object]bool{}
	for changed := true; changed; {
		changed = false
		for _, f := range pass.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj := pass.TypesInfo.Defs[fd.Name]
				if obj == nil || getters[obj] {
					continue
				}
				tr := &tracker{pass: pass, getters: getters, aliased: map[types.Object]root{}}
				tr.walk(fd, func(res ast.Expr) {
					if tr.rooted(res) == poolRoot {
						getters[obj], changed = true, true
					}
				})
			}
		}
	}
	return getters
}

// receiverObj returns the receiver variable's object, or nil for functions
// and anonymous receivers (which cannot leak fields by name).
func receiverObj(pass *analysis.Pass, fd *ast.FuncDecl) types.Object {
	if fd.Recv == nil || len(fd.Recv.List) == 0 || len(fd.Recv.List[0].Names) == 0 {
		return nil
	}
	return pass.TypesInfo.Defs[fd.Recv.List[0].Names[0]]
}

// rooted reports what reusable memory e evaluates into: a field selector
// chain rooted at the receiver, a pool.Get() (or a getter's result), a
// type assertion, slice or index of either, an append — builtin or an
// AppendX-style function — whose destination is one, or a tracked local
// alias.
func (tr *tracker) rooted(e ast.Expr) root {
	pass := tr.pass
	switch e := unparen(e).(type) {
	case *ast.Ident:
		obj := pass.TypesInfo.Uses[e]
		if obj == nil {
			return unrooted
		}
		if tr.recv != nil && obj == tr.recv {
			return receiverRoot
		}
		return tr.aliased[obj]
	case *ast.SelectorExpr:
		return tr.rooted(e.X)
	case *ast.SliceExpr:
		return tr.rooted(e.X)
	case *ast.IndexExpr:
		return tr.rooted(e.X)
	case *ast.StarExpr:
		return tr.rooted(e.X)
	case *ast.TypeAssertExpr:
		return tr.rooted(e.X)
	case *ast.CallExpr:
		// append(dst, ...) may return dst's backing array when capacity
		// suffices, so an append rooted in reusable memory stays rooted.
		if id, ok := unparen(e.Fun).(*ast.Ident); ok && id.Name == "append" && len(e.Args) > 0 {
			if b, ok := pass.TypesInfo.Uses[id].(*types.Builtin); ok && b.Name() == "append" {
				return tr.rooted(e.Args[0])
			}
		}
		// Conversions keep the backing array for slice-to-slice; treat a
		// conversion of a rooted value as rooted.
		if tv, ok := pass.TypesInfo.Types[e.Fun]; ok && tv.IsType() && len(e.Args) == 1 {
			return tr.rooted(e.Args[0])
		}
		callee := calleeObj(pass, e)
		if callee == nil {
			return unrooted
		}
		if isPoolGet(callee) || tr.getters[callee] {
			return poolRoot
		}
		// By convention AppendX(dst, …) (binary.AppendUvarint,
		// strconv.AppendInt, a package's own appendChunk) returns dst
		// extended, so it is rooted where dst is.
		if name := callee.Name(); (strings.HasPrefix(name, "Append") || strings.HasPrefix(name, "append")) && len(e.Args) > 0 {
			return tr.rooted(e.Args[0])
		}
		return unrooted
	}
	return unrooted
}

// calleeObj returns the function or method a call invokes, if static.
func calleeObj(pass *analysis.Pass, call *ast.CallExpr) types.Object {
	switch fn := unparen(call.Fun).(type) {
	case *ast.Ident:
		return pass.TypesInfo.Uses[fn]
	case *ast.SelectorExpr:
		return pass.TypesInfo.Uses[fn.Sel]
	}
	return nil
}

// isPoolGet reports whether obj is (*sync.Pool).Get.
func isPoolGet(obj types.Object) bool {
	fn, ok := obj.(*types.Func)
	return ok && fn.FullName() == "(*sync.Pool).Get"
}

func unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}
