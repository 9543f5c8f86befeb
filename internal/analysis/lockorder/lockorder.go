// Package lockorder detects AB-BA deadlocks at compile time: it builds
// an intra-package lock-acquisition graph — which mutex classes are
// acquired while which others are held — and reports every acquisition
// edge that participates in a cycle. A "mutex class" is a (struct
// type, field) pair such as CellCache.mu: instances are not
// distinguished, which is exactly the granularity of the repository's
// documented invariant that multi-mutex code must acquire locks in one
// global order.
//
// PR 8's concurrency canary caught a real deadlock of this shape at
// runtime under -race: pqo.CellCache.Stats held the cache mutex while
// taking entry mutexes, while BestAt held an entry mutex while taking
// the cache mutex. This analyzer flags that pre-fix shape statically.
// CellCache itself was deleted in PR 22 (parametric reuse is the one
// plan cache); the shape survives only as the regression fixture under
// testdata/.
package lockorder

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"

	"mpq/internal/analysis"
)

// Analyzer is the lockorder analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "lockorder",
	Doc: `mutexes must be acquired in one global order

Builds a lock-acquisition graph over the package: an edge A -> B means
some function acquires mutex class B (a struct's sync.Mutex/RWMutex
field) while holding A, directly or through a same-package call. Any
cycle in that graph is a potential AB-BA deadlock and every edge on the
cycle is reported.`,
	Run: run,
}

// lockClass identifies a mutex at class granularity: "Type.field" for
// struct fields, "var name" for package-level mutex variables.
type lockClass string

// edge records one "acquired B while holding A" observation.
type edge struct {
	from, to lockClass
	pos      token.Pos
	fn       string
}

type graph struct {
	pass  *analysis.Pass
	edges []edge
	// summaries: every lock class a function may acquire, transitively
	// through same-package calls.
	summaries map[*types.Func]map[lockClass]bool
	// bodies of the package's declared functions, for the fixpoint.
	decls map[*types.Func]*ast.FuncDecl
}

func run(pass *analysis.Pass) (any, error) {
	g := &graph{
		pass:      pass,
		summaries: map[*types.Func]map[lockClass]bool{},
		decls:     map[*types.Func]*ast.FuncDecl{},
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				if fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
					g.decls[fn] = fd
				}
			}
		}
	}
	g.computeSummaries()
	for fn, fd := range g.decls {
		g.walkFunc(fn.Name(), fd.Body)
	}
	g.reportCycles()
	return nil, nil
}

// computeSummaries iterates to a fixpoint: summary(f) = locks f
// acquires directly plus the summaries of every same-package function
// it calls. Goroutine launches are included — a lock acquired on a
// goroutine the callee starts can still participate in a deadlock.
func (g *graph) computeSummaries() {
	for fn := range g.decls {
		g.summaries[fn] = map[lockClass]bool{}
	}
	for changed := true; changed; {
		changed = false
		for fn, fd := range g.decls {
			sum := g.summaries[fn]
			before := len(sum)
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if class, kind := g.lockOp(call); kind == opLock {
					sum[class] = true
				}
				if callee := g.callee(call); callee != nil {
					for c := range g.summaries[callee] {
						sum[c] = true
					}
				}
				return true
			})
			if len(sum) != before {
				changed = true
			}
		}
	}
}

type opKind int

const (
	opNone opKind = iota
	opLock
	opUnlock
)

// lockOp classifies a call as a Lock/RLock or Unlock/RUnlock on a
// resolvable mutex class.
func (g *graph) lockOp(call *ast.CallExpr) (lockClass, opKind) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", opNone
	}
	var kind opKind
	switch sel.Sel.Name {
	case "Lock", "RLock":
		kind = opLock
	case "Unlock", "RUnlock":
		kind = opUnlock
	default:
		return "", opNone
	}
	fn, ok := g.pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok {
		return "", opNone
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return "", opNone
	}
	if _, isMu := analysis.NamedTypeIn(recv.Type(), "sync", "Mutex"); !isMu {
		if _, isRW := analysis.NamedTypeIn(recv.Type(), "sync", "RWMutex"); !isRW {
			return "", opNone
		}
	}
	class := g.classOf(sel.X)
	if class == "" {
		return "", opNone
	}
	return class, kind
}

// classOf names the mutex being operated on: a field selection x.mu on
// a named struct type of this package, or a package-level mutex var.
func (g *graph) classOf(expr ast.Expr) lockClass {
	switch e := ast.Unparen(expr).(type) {
	case *ast.SelectorExpr:
		field, ok := g.pass.TypesInfo.Uses[e.Sel].(*types.Var)
		if !ok || !field.IsField() {
			return ""
		}
		tv, ok := g.pass.TypesInfo.Types[e.X]
		if !ok {
			return ""
		}
		t := tv.Type
		for {
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
				continue
			}
			break
		}
		named, ok := t.(*types.Named)
		if !ok || named.Obj().Pkg() != g.pass.Pkg {
			return ""
		}
		return lockClass(named.Obj().Name() + "." + field.Name())
	case *ast.Ident:
		v, ok := g.pass.TypesInfo.Uses[e].(*types.Var)
		if !ok || v.IsField() {
			return ""
		}
		if v.Parent() == g.pass.Pkg.Scope() {
			return lockClass("var " + v.Name())
		}
	}
	return ""
}

// callee resolves a call to a function declared in this package.
func (g *graph) callee(call *ast.CallExpr) *types.Func {
	var fn *types.Func
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ = g.pass.TypesInfo.Uses[fun].(*types.Func)
	case *ast.SelectorExpr:
		fn, _ = g.pass.TypesInfo.Uses[fun.Sel].(*types.Func)
	}
	if fn == nil || fn.Pkg() != g.pass.Pkg {
		return nil
	}
	if _, ok := g.decls[fn]; !ok {
		return nil
	}
	return fn
}

// walkFunc simulates one function body in source order, tracking the
// set of held lock classes. Branch bodies are walked with the current
// held set; balanced Lock/Unlock pairs inside a branch cancel out.
// Function literals launched with `go` are walked as independent roots
// (they do not inherit the spawner's held set — a lock held at spawn
// time is not held by the goroutine).
func (g *graph) walkFunc(name string, body *ast.BlockStmt) {
	held := []lockClass{}
	g.walkStmts(name, body.List, &held)
}

func (g *graph) walkStmts(name string, stmts []ast.Stmt, held *[]lockClass) {
	for _, s := range stmts {
		g.walkStmt(name, s, held)
	}
}

func (g *graph) walkStmt(name string, stmt ast.Stmt, held *[]lockClass) {
	switch s := stmt.(type) {
	case *ast.BlockStmt:
		g.walkStmts(name, s.List, held)
	case *ast.IfStmt:
		if s.Init != nil {
			g.walkStmt(name, s.Init, held)
		}
		g.walkExpr(name, s.Cond, held)
		g.walkStmts(name, s.Body.List, held)
		if s.Else != nil {
			g.walkStmt(name, s.Else, held)
		}
	case *ast.ForStmt:
		if s.Init != nil {
			g.walkStmt(name, s.Init, held)
		}
		if s.Cond != nil {
			g.walkExpr(name, s.Cond, held)
		}
		g.walkStmts(name, s.Body.List, held)
		if s.Post != nil {
			g.walkStmt(name, s.Post, held)
		}
	case *ast.RangeStmt:
		g.walkExpr(name, s.X, held)
		g.walkStmts(name, s.Body.List, held)
	case *ast.SwitchStmt:
		if s.Init != nil {
			g.walkStmt(name, s.Init, held)
		}
		if s.Tag != nil {
			g.walkExpr(name, s.Tag, held)
		}
		g.walkStmts(name, s.Body.List, held)
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			g.walkStmt(name, s.Init, held)
		}
		g.walkStmts(name, s.Body.List, held)
	case *ast.CaseClause:
		g.walkStmts(name, s.Body, held)
	case *ast.SelectStmt:
		g.walkStmts(name, s.Body.List, held)
	case *ast.CommClause:
		g.walkStmts(name, s.Body, held)
	case *ast.LabeledStmt:
		g.walkStmt(name, s.Stmt, held)
	case *ast.GoStmt:
		// The goroutine body runs with an empty held set; locks it
		// acquires are still recorded (as edges from nothing) via the
		// independent walk below.
		if lit, ok := s.Call.Fun.(*ast.FuncLit); ok {
			fresh := []lockClass{}
			g.walkStmts(name+" (goroutine)", lit.Body.List, &fresh)
		}
	case *ast.DeferStmt:
		// A deferred Unlock keeps the lock held to function end: do not
		// remove it. A deferred call into the package is treated as an
		// immediate call — it will run while any still-held locks are
		// held.
		if class, kind := g.lockOp(s.Call); kind == opUnlock {
			_ = class // held until end of function
			return
		}
		g.walkExpr(name, s.Call, held)
	case *ast.ExprStmt:
		g.walkExpr(name, s.X, held)
	case *ast.AssignStmt:
		for _, e := range s.Rhs {
			g.walkExpr(name, e, held)
		}
		for _, e := range s.Lhs {
			g.walkExpr(name, e, held)
		}
	case *ast.ReturnStmt:
		for _, e := range s.Results {
			g.walkExpr(name, e, held)
		}
	case *ast.SendStmt:
		g.walkExpr(name, s.Chan, held)
		g.walkExpr(name, s.Value, held)
	case *ast.IncDecStmt:
		g.walkExpr(name, s.X, held)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, e := range vs.Values {
						g.walkExpr(name, e, held)
					}
				}
			}
		}
	}
}

// walkExpr processes every call inside expr in source order.
func (g *graph) walkExpr(name string, expr ast.Expr, held *[]lockClass) {
	ast.Inspect(expr, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok {
			// Direct or deferred function literals run on this
			// goroutine: walk them with the current held set.
			g.walkStmts(name+" (func literal)", lit.Body.List, held)
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if class, kind := g.lockOp(call); kind != opNone {
			switch kind {
			case opLock:
				for _, h := range *held {
					if h != class {
						g.edges = append(g.edges, edge{from: h, to: class, pos: call.Pos(), fn: name})
					}
				}
				if !slicesContains(*held, class) {
					*held = append(*held, class)
				}
			case opUnlock:
				for i, h := range *held {
					if h == class {
						*held = append((*held)[:i], (*held)[i+1:]...)
						break
					}
				}
			}
			return true
		}
		if callee := g.callee(call); callee != nil {
			for c := range g.summaries[callee] {
				for _, h := range *held {
					if h != c {
						g.edges = append(g.edges, edge{from: h, to: c, pos: call.Pos(), fn: name})
					}
				}
			}
		}
		return true
	})
}

func slicesContains(s []lockClass, c lockClass) bool {
	for _, x := range s {
		if x == c {
			return true
		}
	}
	return false
}

// reportCycles finds every edge on a cycle of the acquisition graph
// and reports it, pointing at the other direction's witness.
func (g *graph) reportCycles() {
	adj := map[lockClass]map[lockClass]bool{}
	for _, e := range g.edges {
		if adj[e.from] == nil {
			adj[e.from] = map[lockClass]bool{}
		}
		adj[e.from][e.to] = true
	}
	reaches := func(from, to lockClass) bool {
		seen := map[lockClass]bool{}
		var dfs func(lockClass) bool
		dfs = func(n lockClass) bool {
			if n == to {
				return true
			}
			if seen[n] {
				return false
			}
			seen[n] = true
			for next := range adj[n] {
				if dfs(next) {
					return true
				}
			}
			return false
		}
		return dfs(from)
	}

	reported := map[string]bool{}
	// Deterministic order: edges are appended in file order per
	// function, but map iteration over decls is not ordered — sort by
	// position before reporting.
	sorted := make([]edge, len(g.edges))
	copy(sorted, g.edges)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].pos < sorted[j].pos })
	for _, e := range sorted {
		if !reaches(e.to, e.from) {
			continue
		}
		key := fmt.Sprintf("%v->%v@%v", e.from, e.to, e.pos)
		if reported[key] {
			continue
		}
		reported[key] = true
		witness := g.witness(e.to, e.from)
		g.pass.Reportf(e.pos,
			"%s acquires %s while holding %s, but the reverse order %s is locked elsewhere — AB-BA deadlock; acquire these mutexes in one global order",
			e.fn, e.to, e.from, witness)
	}
}

// witness describes the opposing path for the report.
func (g *graph) witness(from, to lockClass) string {
	for _, e := range g.edges {
		if e.from == from && e.to == to {
			pos := g.pass.Fset.Position(e.pos)
			return fmt.Sprintf("(%s -> %s in %s at %s:%d)", e.from, e.to, e.fn, pos.Filename, pos.Line)
		}
	}
	return fmt.Sprintf("(%s held before %s)", from, to)
}
