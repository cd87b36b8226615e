// Package wireconst enforces that on-the-wire magic numbers — container
// version bytes, codec wire IDs, and the container magic string — are named
// constants declared in exactly one place, never literals at use sites.
//
// The container format is at version 4 and every bump so far touched
// several packages (writer, parser, mrserve capability negotiation). A
// bare `version == 3` scattered through the tree is how format v5+ silently
// forks: one site gets updated, another keeps the stale literal. The
// declared homes are internal/core (containerVersion* constants, the
// "MRWF" magic, the Compressor aliases of the codec IDs), internal/codec
// (the wire ID registry) and internal/layout (the Arrangement values);
// everything else must reference them by name.
//
// Flagged patterns (outside const declarations):
//
//   - an integer literal compared against, assigned to, or switched over a
//     variable named "version" (or ending in "Version")
//   - an integer literal used as a repro/internal/core.Compressor or
//     repro/internal/layout.Arrangement value (core.Arrangement is an alias
//     of the latter), including explicit conversions like Compressor(2)
//   - an integer literal passed as the id argument of codec.ByID
//   - a string literal compared against a string(...) conversion — the
//     wire-magic sniffing pattern; the magic belongs in a named constant
package wireconst

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"repro/internal/lint/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "wireconst",
	Doc: "container versions, codec wire IDs, arrangements and wire magic must " +
		"be named constants from internal/core / internal/codec / internal/layout, " +
		"not literals at use sites",
	Run: run,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		// Literals inside constant declarations are the single allowed home.
		inConst := constDeclRanges(f)
		ast.Inspect(f, func(n ast.Node) bool {
			if n == nil {
				return true
			}
			if within(inConst, n.Pos()) {
				return false
			}
			switch n := n.(type) {
			case *ast.BinaryExpr:
				checkCompare(pass, n)
			case *ast.AssignStmt:
				checkAssign(pass, n)
			case *ast.SwitchStmt:
				checkSwitch(pass, n)
			case *ast.CallExpr:
				checkByID(pass, n)
				if checkConversion(pass, n) {
					// The literal argument was reported as part of the
					// conversion; don't report it again as a typed literal.
					return false
				}
			case *ast.BasicLit:
				checkTypedLiteral(pass, n)
			}
			return true
		})
	}
	return nil
}

// constDeclRanges returns the source ranges of every const declaration.
func constDeclRanges(f *ast.File) [][2]token.Pos {
	var ranges [][2]token.Pos
	ast.Inspect(f, func(n ast.Node) bool {
		if gd, ok := n.(*ast.GenDecl); ok && gd.Tok == token.CONST {
			ranges = append(ranges, [2]token.Pos{gd.Pos(), gd.End()})
		}
		return true
	})
	return ranges
}

func within(ranges [][2]token.Pos, pos token.Pos) bool {
	for _, r := range ranges {
		if pos >= r[0] && pos < r[1] {
			return true
		}
	}
	return false
}

// versionIdent reports whether e (parens stripped) is an identifier or
// field selector whose name is "version" or ends in "Version".
func versionIdent(e ast.Expr) bool {
	var name string
	switch e := unparen(e).(type) {
	case *ast.Ident:
		name = e.Name
	case *ast.SelectorExpr:
		name = e.Sel.Name
	default:
		return false
	}
	return name == "version" || strings.HasSuffix(name, "Version") || strings.HasSuffix(name, "version")
}

func intLit(e ast.Expr) *ast.BasicLit {
	lit, ok := unparen(e).(*ast.BasicLit)
	if !ok || lit.Kind != token.INT {
		return nil
	}
	return lit
}

func stringLit(e ast.Expr) *ast.BasicLit {
	lit, ok := unparen(e).(*ast.BasicLit)
	if !ok || lit.Kind != token.STRING {
		return nil
	}
	return lit
}

// stringConv reports whether e is a string(...) conversion — the wire
// sniffing idiom `string(blob[:4]) == "..."`.
func stringConv(pass *analysis.Pass, e ast.Expr) bool {
	call, ok := unparen(e).(*ast.CallExpr)
	if !ok || len(call.Args) != 1 {
		return false
	}
	tv, ok := pass.TypesInfo.Types[call.Fun]
	if !ok || !tv.IsType() {
		return false
	}
	b, ok := tv.Type.Underlying().(*types.Basic)
	return ok && b.Kind() == types.String
}

func checkCompare(pass *analysis.Pass, n *ast.BinaryExpr) {
	switch n.Op {
	case token.EQL, token.NEQ, token.LSS, token.LEQ, token.GTR, token.GEQ:
	default:
		return
	}
	// version <op> INT (either side)
	if versionIdent(n.X) {
		if lit := intLit(n.Y); lit != nil {
			report(pass, lit, "version compared against literal %s", lit.Value)
		}
	}
	if versionIdent(n.Y) {
		if lit := intLit(n.X); lit != nil {
			report(pass, lit, "version compared against literal %s", lit.Value)
		}
	}
	// string(x) ==/!= "MAGI" (wire magic sniffing)
	if n.Op == token.EQL || n.Op == token.NEQ {
		if stringConv(pass, n.X) {
			if lit := stringLit(n.Y); lit != nil {
				report(pass, lit, "wire magic compared as string literal %s", lit.Value)
			}
		}
		if stringConv(pass, n.Y) {
			if lit := stringLit(n.X); lit != nil {
				report(pass, lit, "wire magic compared as string literal %s", lit.Value)
			}
		}
	}
}

func checkAssign(pass *analysis.Pass, n *ast.AssignStmt) {
	if len(n.Lhs) != len(n.Rhs) {
		return
	}
	for i, lhs := range n.Lhs {
		if !versionIdent(lhs) {
			continue
		}
		if lit := intLit(n.Rhs[i]); lit != nil {
			report(pass, lit, "version assigned literal %s", lit.Value)
		}
	}
}

func checkSwitch(pass *analysis.Pass, n *ast.SwitchStmt) {
	if n.Tag == nil || !versionIdent(n.Tag) {
		return
	}
	for _, clause := range n.Body.List {
		cc := clause.(*ast.CaseClause)
		for _, e := range cc.List {
			if lit := intLit(e); lit != nil {
				report(pass, lit, "switch over version with literal case %s", lit.Value)
			}
		}
	}
}

// checkByID flags codec.ByID(3): the wire ID must be one of the named
// registry constants.
func checkByID(pass *analysis.Pass, n *ast.CallExpr) {
	sel, ok := unparen(n.Fun).(*ast.SelectorExpr)
	if !ok {
		return
	}
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Name() != "ByID" || fn.Pkg() == nil || fn.Pkg().Path() != "repro/internal/codec" {
		return
	}
	if len(n.Args) == 0 {
		return
	}
	if lit := intLit(n.Args[0]); lit != nil {
		report(pass, lit, "codec.ByID called with literal wire ID %s", lit.Value)
	}
}

// checkConversion flags core.Compressor(2) / layout.Arrangement(1): explicit
// conversions of literals to the wire enum types. It reports whether it
// produced a finding, so the caller can avoid double-reporting the literal.
func checkConversion(pass *analysis.Pass, n *ast.CallExpr) bool {
	if len(n.Args) != 1 {
		return false
	}
	tv, ok := pass.TypesInfo.Types[n.Fun]
	if !ok || !tv.IsType() || !isWireEnum(tv.Type) {
		return false
	}
	if lit := intLit(n.Args[0]); lit != nil {
		report(pass, lit, "literal %s converted to %s", lit.Value, types.Unalias(tv.Type).String())
		return true
	}
	return false
}

// checkTypedLiteral flags integer literals that the type checker resolved
// to a wire enum type through implicit conversion (assignment, argument,
// return, comparison against a typed value). The implicit zero value is
// exempt — `return 0, err` is a Go error-path idiom, not a wire ID; an
// explicit Compressor(0) conversion is still flagged.
func checkTypedLiteral(pass *analysis.Pass, lit *ast.BasicLit) {
	if lit.Kind != token.INT || lit.Value == "0" {
		return
	}
	tv, ok := pass.TypesInfo.Types[lit]
	if !ok || !isWireEnum(tv.Type) {
		return
	}
	report(pass, lit, "literal %s used as %s value", lit.Value, types.Unalias(tv.Type).String())
}

// isWireEnum reports whether t, or the type it aliases, is
// repro/internal/core.Compressor or repro/internal/layout.Arrangement — the
// two enum types whose values go on the wire.
func isWireEnum(t types.Type) bool {
	named, ok := types.Unalias(t).(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Pkg() == nil {
		return false
	}
	path := obj.Pkg().Path()
	return path == "repro/internal/core" && obj.Name() == "Compressor" ||
		path == "repro/internal/layout" && obj.Name() == "Arrangement"
}

func report(pass *analysis.Pass, lit *ast.BasicLit, format string, args ...any) {
	pass.Reportf(lit.Pos(), format+"; declare it as a named constant in "+
		"internal/core, internal/codec or internal/layout and reference it by name", args...)
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
