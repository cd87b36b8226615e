// Package lockio flags decode, I/O, and cross-shard calls made while a
// sync.Mutex or sync.RWMutex is held.
//
// This is the PR 3 race class: mrserve's reader registry once performed a
// container decode inside its registry lock, and a concurrent shutdown
// handed a stale reader to an in-flight request; only -race caught it. The
// invariant since then is that locks in this codebase protect in-memory
// bookkeeping only — anything that can block (file reads, network writes,
// flate/huffman decode, another shard's lock) happens before the lock is
// taken or after it is released.
//
// The analyzer walks each function in statement order, tracking the set of
// held mutexes (keyed by the receiver expression, e.g. "s.mu"). While any
// lock is held it reports:
//
//   - calls into blocking or decode-heavy packages: os, io, io/fs, bufio,
//     net, net/http, compress/flate, compress/gzip, and the repro decode
//     stack (internal/core, codec, reader, field, cache, sz2, sz3, zfp,
//     huffman, flatepool, writer)
//   - Lock/RLock on a second mutex (lock-order inversion risk — the
//     cross-shard half of the PR 3 class)
//
// Calls to functions in the same package are exempt (the *Locked helper
// convention); intentional sites carry a //lint:ignore mrlint/lockio
// directive with a reason. Branch bodies are analyzed with a copy of the
// held set, so `if done { s.mu.Unlock(); decode() }` is not a false
// positive; a deferred Unlock keeps the mutex held to the end of the
// function, which is exactly what it does at runtime.
package lockio

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"

	"repro/internal/lint/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "lockio",
	Doc: "no decode, I/O, or other-lock calls while holding a sync.Mutex/RWMutex; " +
		"locks protect in-memory state only",
	Run: run,
}

// deniedPkgs are the packages whose calls must not happen under a lock.
var deniedPkgs = map[string]bool{
	"os":             true,
	"io":             true,
	"io/fs":          true,
	"bufio":          true,
	"net":            true,
	"net/http":       true,
	"compress/flate": true,
	"compress/gzip":  true,

	"repro/internal/core":      true,
	"repro/internal/codec":     true,
	"repro/internal/reader":    true,
	"repro/internal/field":     true,
	"repro/internal/cache":     true,
	"repro/internal/sz2":       true,
	"repro/internal/sz3":       true,
	"repro/internal/zfp":       true,
	"repro/internal/huffman":   true,
	"repro/internal/flatepool": true,
	"repro/internal/writer":    true,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Body != nil {
					w := &walker{pass: pass}
					w.block(n.Body, map[string]bool{})
				}
				return false // nested FuncLits handled by the walker
			}
			return true
		})
	}
	return nil
}

type walker struct {
	pass *analysis.Pass
}

// block walks stmts in order, mutating held.
func (w *walker) block(b *ast.BlockStmt, held map[string]bool) {
	for _, s := range b.List {
		w.stmt(s, held)
	}
}

func (w *walker) stmt(s ast.Stmt, held map[string]bool) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		w.block(s, held)
	case *ast.IfStmt:
		if s.Init != nil {
			w.stmt(s.Init, held)
		}
		w.expr(s.Cond, held)
		w.block(s.Body, copyHeld(held))
		if s.Else != nil {
			w.stmt(s.Else, copyHeld(held))
		}
	case *ast.ForStmt:
		inner := copyHeld(held)
		if s.Init != nil {
			w.stmt(s.Init, inner)
		}
		if s.Cond != nil {
			w.expr(s.Cond, inner)
		}
		w.block(s.Body, inner)
		if s.Post != nil {
			w.stmt(s.Post, inner)
		}
	case *ast.RangeStmt:
		w.expr(s.X, held)
		w.block(s.Body, copyHeld(held))
	case *ast.SwitchStmt:
		if s.Init != nil {
			w.stmt(s.Init, held)
		}
		if s.Tag != nil {
			w.expr(s.Tag, held)
		}
		for _, clause := range s.Body.List {
			cc := clause.(*ast.CaseClause)
			inner := copyHeld(held)
			for _, e := range cc.List {
				w.expr(e, inner)
			}
			for _, st := range cc.Body {
				w.stmt(st, inner)
			}
		}
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			w.stmt(s.Init, held)
		}
		w.stmt(s.Assign, held)
		for _, clause := range s.Body.List {
			cc := clause.(*ast.CaseClause)
			inner := copyHeld(held)
			for _, st := range cc.Body {
				w.stmt(st, inner)
			}
		}
	case *ast.SelectStmt:
		for _, clause := range s.Body.List {
			cc := clause.(*ast.CommClause)
			inner := copyHeld(held)
			if cc.Comm != nil {
				w.stmt(cc.Comm, inner)
			}
			for _, st := range cc.Body {
				w.stmt(st, inner)
			}
		}
	case *ast.LabeledStmt:
		w.stmt(s.Stmt, held)
	case *ast.DeferStmt:
		// A deferred Unlock runs at function exit: the mutex stays held for
		// the remainder of the walk, which is the truth we want to model.
		// Deferred closures get their own fresh analysis.
		if kind, _ := w.lockOp(s.Call); kind == opNone {
			w.expr(s.Call, held)
		}
	case *ast.GoStmt:
		// The goroutine runs concurrently; it does not inherit our locks.
		w.funcLits(s.Call)
	case *ast.ExprStmt:
		w.expr(s.X, held)
	case *ast.AssignStmt:
		for _, e := range s.Rhs {
			w.expr(e, held)
		}
		for _, e := range s.Lhs {
			w.expr(e, held)
		}
	case *ast.ReturnStmt:
		for _, e := range s.Results {
			w.expr(e, held)
		}
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, e := range vs.Values {
						w.expr(e, held)
					}
				}
			}
		}
	case *ast.SendStmt:
		w.expr(s.Chan, held)
		w.expr(s.Value, held)
	case *ast.IncDecStmt:
		w.expr(s.X, held)
	}
}

// expr scans an expression for lock operations and denied calls, in
// pre-order (good enough within a single expression).
func (w *walker) expr(e ast.Expr, held map[string]bool) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			// Closures start with no locks held in this model; their bodies
			// are analyzed separately.
			w.block(n.Body, map[string]bool{})
			return false
		case *ast.CallExpr:
			w.call(n, held)
			return true
		}
		return true
	})
}

type lockOpKind int

const (
	opNone lockOpKind = iota
	opLock
	opUnlock
)

// lockOp classifies call as a Lock/RLock or Unlock/RUnlock on a
// sync.Mutex/RWMutex, returning the held-set key for the mutex expression.
func (w *walker) lockOp(call *ast.CallExpr) (lockOpKind, string) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return opNone, ""
	}
	fn, ok := w.pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return opNone, ""
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return opNone, ""
	}
	key := types.ExprString(sel.X)
	switch fn.Name() {
	case "Lock", "RLock":
		return opLock, key
	case "Unlock", "RUnlock":
		return opUnlock, key
	}
	return opNone, ""
}

func (w *walker) call(call *ast.CallExpr, held map[string]bool) {
	if kind, key := w.lockOp(call); kind != opNone {
		switch kind {
		case opLock:
			if len(held) > 0 && !held[key] {
				w.pass.Reportf(call.Pos(), "acquiring %q while already holding %s: "+
					"lock-order inversion risk; release the first lock before taking another",
					key, heldList(held))
			}
			held[key] = true
		case opUnlock:
			delete(held, key)
		}
		return
	}
	if len(held) == 0 {
		return
	}
	callee := w.callee(call)
	if callee == nil || callee.Pkg() == nil {
		return
	}
	pkg := callee.Pkg()
	if pkg == w.pass.Pkg {
		return // same-package helpers follow the *Locked convention
	}
	if isFileInfoAccessor(callee) {
		return // fs.FileInfo methods read an already-completed stat
	}
	if deniedPkgs[pkg.Path()] {
		w.pass.Reportf(call.Pos(), "call to %s.%s while holding %s: "+
			"locks protect in-memory state only; move decode/IO outside the critical section",
			pkg.Path(), callee.Name(), heldList(held))
	}
}

// isFileInfoAccessor reports whether fn is a method of io/fs.FileInfo
// (Name, Size, Mode, ModTime, IsDir, Sys). Those are accessors on the
// result of a stat that already happened; calling them never blocks, so
// they are exempt even though they live in a denied package.
func isFileInfoAccessor(obj types.Object) bool {
	fn, ok := obj.(*types.Func)
	if !ok {
		return false
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	named, ok := recv.Type().(*types.Named)
	if !ok {
		return false
	}
	o := named.Obj()
	return o.Name() == "FileInfo" && o.Pkg() != nil && o.Pkg().Path() == "io/fs"
}

func (w *walker) callee(call *ast.CallExpr) types.Object {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		return w.pass.TypesInfo.Uses[fun]
	case *ast.SelectorExpr:
		return w.pass.TypesInfo.Uses[fun.Sel]
	}
	return nil
}

// funcLits analyzes any function literals inside e with fresh state.
func (w *walker) funcLits(e ast.Expr) {
	ast.Inspect(e, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok {
			w.block(lit.Body, map[string]bool{})
			return false
		}
		return true
	})
}

func copyHeld(held map[string]bool) map[string]bool {
	out := make(map[string]bool, len(held))
	for k, v := range held {
		out[k] = v
	}
	return out
}

func heldList(held map[string]bool) string {
	keys := make([]string, 0, len(held))
	for k := range held {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return strings.Join(keys, ", ")
}
