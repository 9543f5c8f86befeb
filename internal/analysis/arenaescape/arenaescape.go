// Package arenaescape enforces the repository's arena-pooling
// invariant (docs/perf.md §"pooling safety"): plan nodes allocated
// from a plan.Arena live only until the arena's next Reset, and a
// pooled dp.Runtime resets its arena on every borrow. A node produced
// by an arena constructor therefore must not outlive the current run:
// it must not be stored to a field, returned, or sent on a channel
// unless it is first deep-copied out via plan.CloneTree (dp.Engine's
// Finish is the audited wrapper that does exactly this for result
// plans).
package arenaescape

import (
	"go/ast"
	"go/types"

	"mpq/internal/analysis"
)

// Analyzer is the arenaescape analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "arenaescape",
	Doc: `arena-allocated plan nodes must not escape without CloneTree

Values produced by plan.Arena constructors (Scan, Join,
JoinWithScalars) are invalidated by the arena's next Reset. Storing
one to a struct field, returning it, or sending it on a channel lets
it outlive the run that allocated it; route such escapes through
plan.CloneTree (or dp.Engine.Finish) instead. Functions with a
plan.Arena receiver are exempt: the arena returning its own nodes is
the constructor API itself.`,
	Run: run,
}

func run(pass *analysis.Pass) (any, error) {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if recvIsArena(pass, fd) {
				continue
			}
			checkFunc(pass, fd)
		}
	}
	return nil, nil
}

// recvIsArena reports whether fd is a method on plan.Arena itself.
func recvIsArena(pass *analysis.Pass, fd *ast.FuncDecl) bool {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return false
	}
	tv, ok := pass.TypesInfo.Types[fd.Recv.List[0].Type]
	if !ok {
		return false
	}
	_, isArena := analysis.NamedTypeIn(tv.Type, "plan", "Arena")
	return isArena
}

// checkFunc tracks arena-produced values through local variables of one
// function (including its closures — closures share the function's
// variables) and flags the escapes.
func checkFunc(pass *analysis.Pass, fd *ast.FuncDecl) {
	tainted := map[types.Object]bool{}

	var exprTainted func(e ast.Expr) bool
	exprTainted = func(e ast.Expr) bool {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			obj := pass.TypesInfo.Uses[x]
			if obj == nil {
				obj = pass.TypesInfo.Defs[x]
			}
			return obj != nil && tainted[obj]
		case *ast.CallExpr:
			if isCloneTree(pass, x) {
				return false
			}
			if isArenaProducer(pass, x) {
				return true
			}
			// Conversions and type assertions preserve taint.
			return false
		case *ast.UnaryExpr:
			return exprTainted(x.X)
		case *ast.StarExpr:
			return exprTainted(x.X)
		case *ast.IndexExpr:
			return exprTainted(x.X)
		case *ast.TypeAssertExpr:
			return exprTainted(x.X)
		case *ast.CompositeLit:
			for _, el := range x.Elts {
				if kv, ok := el.(*ast.KeyValueExpr); ok {
					el = kv.Value
				}
				if exprTainted(el) {
					return true
				}
			}
			return false
		}
		return false
	}

	// Seed and propagate taint through local assignments to a fixpoint:
	// x := a.Scan(...); y := x; ... all mark their objects.
	for changed := true; changed; {
		changed = false
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			asg, ok := n.(*ast.AssignStmt)
			if !ok {
				return true
			}
			// append(s, tainted) taints s even through s = append(s, x).
			for i, lhs := range asg.Lhs {
				id, ok := ast.Unparen(lhs).(*ast.Ident)
				if !ok || id.Name == "_" {
					continue
				}
				obj := pass.TypesInfo.Defs[id]
				if obj == nil {
					obj = pass.TypesInfo.Uses[id]
				}
				if obj == nil || tainted[obj] {
					continue
				}
				var rhs ast.Expr
				if len(asg.Rhs) == len(asg.Lhs) {
					rhs = asg.Rhs[i]
				} else if len(asg.Rhs) == 1 {
					rhs = asg.Rhs[0] // multi-value call: taint all LHS if tainted
				}
				if rhs == nil {
					continue
				}
				t := exprTainted(rhs)
				if !t {
					if call, ok := ast.Unparen(rhs).(*ast.CallExpr); ok && isAppend(pass, call) {
						for _, arg := range call.Args[1:] {
							if exprTainted(arg) {
								t = true
								break
							}
						}
					}
				}
				if t {
					tainted[obj] = true
					changed = true
				}
			}
			return true
		})
	}

	// Flag the escapes.
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range asgEscapeTargets(s) {
				if lhs == nil {
					continue
				}
				var rhs ast.Expr
				if len(s.Rhs) == len(s.Lhs) {
					rhs = s.Rhs[i]
				} else if len(s.Rhs) == 1 {
					rhs = s.Rhs[0]
				}
				if rhs != nil && exprTainted(rhs) {
					pass.Reportf(rhs.Pos(),
						"arena-allocated plan node is stored to %s and may outlive the arena's next Reset; deep-copy it with plan.CloneTree first (or return it via dp.Engine.Finish)",
						escapeKind(lhs))
				}
			}
		case *ast.ReturnStmt:
			for _, res := range s.Results {
				if exprTainted(res) {
					pass.Reportf(res.Pos(),
						"arena-allocated plan node is returned and may outlive the arena's next Reset; deep-copy it with plan.CloneTree first (or return it via dp.Engine.Finish)")
				}
			}
		case *ast.SendStmt:
			if exprTainted(s.Value) {
				pass.Reportf(s.Value.Pos(),
					"arena-allocated plan node is sent on a channel and may outlive the arena's next Reset; deep-copy it with plan.CloneTree first (or return it via dp.Engine.Finish)")
			}
		}
		return true
	})
}

// asgEscapeTargets returns, aligned with s.Lhs, the LHS expressions
// that constitute an escape when assigned a tainted value: field
// stores, element stores and pointer-indirect stores. Plain local
// variables return nil (tracked as taint instead).
func asgEscapeTargets(s *ast.AssignStmt) []ast.Expr {
	out := make([]ast.Expr, len(s.Lhs))
	for i, lhs := range s.Lhs {
		switch ast.Unparen(lhs).(type) {
		case *ast.SelectorExpr, *ast.IndexExpr, *ast.StarExpr:
			out[i] = lhs
		}
	}
	return out
}

func escapeKind(lhs ast.Expr) string {
	switch ast.Unparen(lhs).(type) {
	case *ast.SelectorExpr:
		return "a struct field"
	case *ast.IndexExpr:
		return "a slice or map element"
	default:
		return "a pointer target"
	}
}

// isArenaProducer reports whether call invokes a plan.Arena method
// returning plan nodes.
func isArenaProducer(pass *analysis.Pass, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	if _, isArena := analysis.NamedTypeIn(sig.Recv().Type(), "plan", "Arena"); !isArena {
		return false
	}
	for i := 0; i < sig.Results().Len(); i++ {
		if _, isNode := analysis.NamedTypeIn(sig.Results().At(i).Type(), "plan", "Node"); isNode {
			return true
		}
	}
	return false
}

// isCloneTree reports whether call is plan.CloneTree(...), the
// sanctioned deep-copy out of an arena.
func isCloneTree(pass *analysis.Pass, call *ast.CallExpr) bool {
	var fn *types.Func
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ = pass.TypesInfo.Uses[fun].(*types.Func)
	case *ast.SelectorExpr:
		fn, _ = pass.TypesInfo.Uses[fun.Sel].(*types.Func)
	}
	return fn != nil && fn.Name() == "CloneTree" && analysis.PkgNameIs(fn.Pkg(), "plan")
}

// isAppend reports whether call is the builtin append.
func isAppend(pass *analysis.Pass, call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := pass.TypesInfo.Uses[id].(*types.Builtin)
	return ok && b.Name() == "append" && len(call.Args) > 1
}
