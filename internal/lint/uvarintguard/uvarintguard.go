// Package uvarintguard flags length and count fields decoded from the wire
// that reach a dangerous sink without passing an explicit upper-bound check
// first.
//
// This is the bug class behind two shipped fixes: the PR 1 container header
// scan trusted a uvarint block count and over-allocated, and the PR 5
// field.ReadFromLimit converted uint64 dimensions to int before validating
// them, so a crafted header overflowed the nx*ny*nz product and panicked a
// server goroutine. Untrusted integers must be range-checked while still in
// their decoded (wide, unsigned) type.
//
// Decoders read untrusted integers through internal/wire.Reader, whose
// Uvarint takes the bound as part of every call and whose Dims checks
// dimension triples through field.CheckDims. This analyzer guards every
// read outside it: the cursor itself, fixed-layout headers such as the raw
// field format and the index trailer, and the per-sample loops that decode
// a value per coefficient or outlier.
//
// Sources — values treated as attacker-controlled:
//
//   - binary.Uvarint / binary.Varint / binary.ReadUvarint / binary.ReadVarint
//   - binary.LittleEndian.Uint16/32/64 and binary.BigEndian.Uint16/32/64
//   - calls to same-package functions (or local closures) that return such a
//     value unchecked
//
// Sinks — uses that must be preceded by a bound check on the same variable:
//
//   - conversions that narrow or change sign (uint64 → int, int64, uint32, …)
//   - make() lengths and capacities
//   - index and slice expressions
//
// Guards — what counts as a bound check. The tainted variable must appear as
// a direct operand of a comparison in its decoded type, in one of the forms
//
//	v == k, v != k        (equality pins the value)
//	v > max, v >= max     (reject-form upper bound: `if v > max { return err }`)
//	min < v, min <= v     (same bound with the operands swapped)
//
// Lower-bound-only checks (`v <= 0`) do not count: they miss exactly the
// huge positive values that overflow downstream products. Comparing after
// converting (`if int(v) > max`) does not count either — the conversion has
// already destroyed the value. Arithmetic on the tainted value
// (`v*8 < limit`) does not guard it, because the multiplication itself can
// wrap.
//
// The analysis is intra-procedural and source-position ordered; taint does
// not propagate through arithmetic, slices, or non-local calls.
package uvarintguard

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/lint/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "uvarintguard",
	Doc: "wire-decoded integers (binary.Uvarint and friends) must pass an " +
		"explicit upper-bound check before narrowing conversions, make sizes, " +
		"or index expressions",
	Run: run,
}

func run(pass *analysis.Pass) error {
	// Phase 1: find same-package wrappers that return a wire-decoded value
	// unchecked, so calls to them count as sources too.
	wrappers := findWrappers(pass)
	// Phase 2: analyze every function body with the extended source set.
	forEachFunc(pass, func(body *ast.BlockStmt) {
		newChecker(pass, wrappers, true).walk(body)
	})
	return nil
}

// forEachFunc invokes fn once per function body in the package: every
// FuncDecl body and every FuncLit body (closures get fresh state — taint
// does not cross the closure boundary).
func forEachFunc(pass *analysis.Pass, fn func(*ast.BlockStmt)) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Body != nil {
					fn(n.Body)
				}
			case *ast.FuncLit:
				fn(n.Body)
			}
			return true
		})
	}
}

// source describes one tainted value: how many value bits it carries and
// whether its decoded type is signed.
type source struct {
	bits   int
	signed bool
}

// checker walks one function body in source order, tracking which variables
// hold unchecked wire-decoded values.
type checker struct {
	pass     *analysis.Pass
	wrappers map[types.Object][]source // func/closure object -> per-result taint (nil entry = clean)
	report   bool
	tainted  map[types.Object]source
	// returnsTainted records, per result index, whether any return statement
	// returned a still-tainted value (used by wrapper detection).
	returnsTainted map[int]source
}

func newChecker(pass *analysis.Pass, wrappers map[types.Object][]source, report bool) *checker {
	return &checker{
		pass:           pass,
		wrappers:       wrappers,
		report:         report,
		tainted:        map[types.Object]source{},
		returnsTainted: map[int]source{},
	}
}

func (c *checker) walk(body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			// Fresh state; analyzed by forEachFunc.
			return false
		case *ast.AssignStmt:
			c.assign(n)
			return true
		case *ast.BinaryExpr:
			c.compare(n)
			return true
		case *ast.CallExpr:
			c.call(n)
			return true
		case *ast.IndexExpr:
			if src, ok := c.taintedExpr(n.Index); ok {
				c.reportf(n.Index.Pos(), src, "used as an index")
			}
			return true
		case *ast.SliceExpr:
			for _, idx := range []ast.Expr{n.Low, n.High, n.Max} {
				if idx == nil {
					continue
				}
				if src, ok := c.taintedExpr(idx); ok {
					c.reportf(idx.Pos(), src, "used as a slice bound")
				}
			}
			return true
		case *ast.ReturnStmt:
			c.ret(n)
			return true
		}
		return true
	})
}

// assign handles taint introduction (v, n := binary.Uvarint(buf)), alias
// propagation (x := v), and kill-on-reassign.
func (c *checker) assign(n *ast.AssignStmt) {
	if len(n.Rhs) == 1 {
		if call, ok := unparen(n.Rhs[0]).(*ast.CallExpr); ok {
			if srcs := c.sourceCall(call); srcs != nil {
				for i, lhs := range n.Lhs {
					obj := c.lhsObject(lhs)
					if obj == nil {
						continue
					}
					if i < len(srcs) && srcs[i].bits != 0 {
						c.tainted[obj] = srcs[i]
					} else {
						delete(c.tainted, obj)
					}
				}
				return
			}
		}
	}
	if len(n.Lhs) == len(n.Rhs) {
		for i, lhs := range n.Lhs {
			obj := c.lhsObject(lhs)
			if obj == nil {
				continue
			}
			if src, from := c.taintedOperand(n.Rhs[i]); from != nil {
				c.tainted[obj] = src // direct copy keeps the taint
			} else {
				delete(c.tainted, obj)
			}
		}
	}
}

// compare clears taint when the comparison is a genuine upper-bound (or
// equality) check with the tainted variable as a direct operand.
func (c *checker) compare(n *ast.BinaryExpr) {
	_, lobj := c.taintedOperand(n.X)
	_, robj := c.taintedOperand(n.Y)
	switch n.Op {
	case token.EQL, token.NEQ:
		// Equality pins the value on the path that matters.
		if lobj != nil {
			delete(c.tainted, lobj)
		}
		if robj != nil {
			delete(c.tainted, robj)
		}
	case token.GTR, token.GEQ:
		// v > max / v >= max: reject-form upper bound.
		if lobj != nil {
			delete(c.tainted, lobj)
		}
	case token.LSS, token.LEQ:
		// min < v / limit <= v: the same upper bound, operands swapped
		// (also covers `uint64(len(buf)) < need`). A tainted LEFT operand
		// here is a lower-bound-only check (v <= 0) and does NOT clear.
		if robj != nil {
			delete(c.tainted, robj)
		}
	}
}

// call handles make() sinks, conversion sinks, and taint introduced by bare
// source calls used as statements (their results are unnamed, so nothing to
// do beyond classification).
func (c *checker) call(n *ast.CallExpr) {
	// make([]T, v) / make([]T, 0, v)
	if id, ok := unparen(n.Fun).(*ast.Ident); ok && id.Name == "make" {
		if obj, ok := c.pass.TypesInfo.Uses[id].(*types.Builtin); ok && obj.Name() == "make" {
			for _, arg := range n.Args[1:] {
				if src, ok := c.taintedExpr(arg); ok {
					c.reportf(arg.Pos(), src, "used as a make() size")
				}
			}
			return
		}
	}
	// Conversion sink: T(v) where T cannot hold every value of v's type.
	if len(n.Args) == 1 {
		if tv, ok := c.pass.TypesInfo.Types[n.Fun]; ok && tv.IsType() {
			if src, ok := c.taintedExpr(n.Args[0]); ok {
				if narrows(src, tv.Type) {
					c.reportf(n.Args[0].Pos(), src, "converted to "+tv.Type.String())
				}
			}
		}
	}
}

func (c *checker) ret(n *ast.ReturnStmt) {
	// return binary.Uvarint(buf) — tuple return of a source call.
	if len(n.Results) == 1 {
		if call, ok := unparen(n.Results[0]).(*ast.CallExpr); ok {
			if srcs := c.sourceCall(call); srcs != nil {
				for j, s := range srcs {
					if s.bits != 0 {
						if _, seen := c.returnsTainted[j]; !seen {
							c.returnsTainted[j] = s
						}
					}
				}
				return
			}
		}
	}
	for i, res := range n.Results {
		if src, obj := c.taintedOperand(res); obj != nil {
			if _, seen := c.returnsTainted[i]; !seen {
				c.returnsTainted[i] = src
			}
		}
	}
}

func (c *checker) reportf(pos token.Pos, _ source, what string) {
	if !c.report {
		return
	}
	c.pass.Reportf(pos, "wire-decoded integer %s without a preceding bound check; "+
		"validate it in its decoded type first (see internal/index for the pattern)", what)
}

// taintedExpr reports whether expr is an unchecked wire-decoded value at a
// sink: either a tainted variable, or a direct source call — converting a
// fresh binary.Uvarint result inline (int(binary.Uvarint(...)) or through
// an unchecked wrapper) can never have been bound-checked.
func (c *checker) taintedExpr(expr ast.Expr) (source, bool) {
	if src, obj := c.taintedOperand(expr); obj != nil {
		return src, true
	}
	if call, ok := unparen(expr).(*ast.CallExpr); ok {
		if srcs := c.sourceCall(call); len(srcs) > 0 && srcs[0].bits != 0 {
			return srcs[0], true
		}
	}
	return source{}, false
}

// taintedOperand unwraps parentheses and reports whether expr is (exactly) a
// tainted variable. Conversions and arithmetic deliberately do NOT unwrap:
// int(v) has already narrowed, and v*8 can wrap.
func (c *checker) taintedOperand(expr ast.Expr) (source, types.Object) {
	id, ok := unparen(expr).(*ast.Ident)
	if !ok {
		return source{}, nil
	}
	obj := c.pass.TypesInfo.Uses[id]
	if obj == nil {
		return source{}, nil
	}
	if src, ok := c.tainted[obj]; ok {
		return src, obj
	}
	return source{}, nil
}

func (c *checker) lhsObject(lhs ast.Expr) types.Object {
	id, ok := unparen(lhs).(*ast.Ident)
	if !ok || id.Name == "_" {
		return nil
	}
	if obj := c.pass.TypesInfo.Defs[id]; obj != nil {
		return obj
	}
	return c.pass.TypesInfo.Uses[id]
}

// sourceCall classifies call: if it produces wire-decoded value(s), the
// returned slice has one entry per result (zero-valued entries are clean).
// A nil return means the call is not a source.
func (c *checker) sourceCall(call *ast.CallExpr) []source {
	callee := c.callee(call)
	if callee == nil {
		return nil
	}
	if fn, ok := callee.(*types.Func); ok && fn.Pkg() != nil && fn.Pkg().Path() == "encoding/binary" {
		switch fn.Name() {
		case "Uvarint", "ReadUvarint":
			return []source{{bits: 64, signed: false}}
		case "Varint", "ReadVarint":
			return []source{{bits: 64, signed: true}}
		case "Uint64":
			return []source{{bits: 64, signed: false}}
		case "Uint32":
			return []source{{bits: 32, signed: false}}
		case "Uint16":
			return []source{{bits: 16, signed: false}}
		}
		return nil
	}
	if srcs, ok := c.wrappers[callee]; ok {
		return srcs
	}
	return nil
}

// callee resolves the called function or variable object, if any.
func (c *checker) callee(call *ast.CallExpr) types.Object {
	switch fun := unparen(call.Fun).(type) {
	case *ast.Ident:
		return c.pass.TypesInfo.Uses[fun]
	case *ast.SelectorExpr:
		return c.pass.TypesInfo.Uses[fun.Sel]
	}
	return nil
}

// narrows reports whether converting a value of src to dst can lose range:
// the destination's capacity in value bits is smaller than the source's.
func narrows(src source, dst types.Type) bool {
	b, ok := dst.Underlying().(*types.Basic)
	if !ok {
		return false
	}
	var dstBits int
	var dstSigned bool
	switch b.Kind() {
	case types.Int, types.Int64:
		dstBits, dstSigned = 64, true
	case types.Int32:
		dstBits, dstSigned = 32, true
	case types.Int16:
		dstBits, dstSigned = 16, true
	case types.Int8:
		dstBits, dstSigned = 8, true
	case types.Uint, types.Uint64, types.Uintptr:
		dstBits, dstSigned = 64, false
	case types.Uint32:
		dstBits, dstSigned = 32, false
	case types.Uint16:
		dstBits, dstSigned = 16, false
	case types.Uint8:
		dstBits, dstSigned = 8, false
	case types.Float32, types.Float64:
		return false // float conversions round, they don't truncate-and-wrap
	default:
		return false
	}
	srcCap := src.bits
	if src.signed {
		srcCap--
	}
	dstCap := dstBits
	if dstSigned {
		dstCap--
	}
	return srcCap > dstCap
}

// findWrappers locates same-package functions and named closures that
// return a wire-decoded value without checking it; calls to them are then
// treated as sources. A wrapper that validates internally (the
// wire.Reader.Uvarint pattern) is clean and is not flagged at call sites.
// Detection is one level deep: wrappers of wrappers are not chased.
func findWrappers(pass *analysis.Pass) map[types.Object][]source {
	wrappers := map[types.Object][]source{}
	record := func(obj types.Object, nResults int, body *ast.BlockStmt) {
		if obj == nil || nResults == 0 {
			return
		}
		probe := newChecker(pass, nil, false)
		probe.walk(body)
		if len(probe.returnsTainted) == 0 {
			return
		}
		srcs := make([]source, nResults)
		for i, s := range probe.returnsTainted {
			if i < nResults {
				srcs[i] = s
			}
		}
		wrappers[obj] = srcs
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Body == nil {
					return true
				}
				obj := pass.TypesInfo.Defs[n.Name]
				record(obj, numResults(n.Type), n.Body)
			case *ast.AssignStmt:
				// name := func(...) { ... } — a named closure.
				if len(n.Lhs) == 1 && len(n.Rhs) == 1 {
					if lit, ok := n.Rhs[0].(*ast.FuncLit); ok {
						if id, ok := n.Lhs[0].(*ast.Ident); ok {
							obj := pass.TypesInfo.Defs[id]
							if obj == nil {
								obj = pass.TypesInfo.Uses[id]
							}
							record(obj, numResults(lit.Type), lit.Body)
						}
					}
				}
			}
			return true
		})
	}
	return wrappers
}

func numResults(ft *ast.FuncType) int {
	if ft.Results == nil {
		return 0
	}
	n := 0
	for _, field := range ft.Results.List {
		if len(field.Names) == 0 {
			n++
		} else {
			n += len(field.Names)
		}
	}
	return n
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
