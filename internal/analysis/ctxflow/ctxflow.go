// Package ctxflow enforces the repository's cancellation invariant
// (established in PR 4): in the packages an optimization passes through
// on its way to the dynamic program — netrun, server, cluster, cache,
// pqo and the root package mpq — contexts must flow through every
// blocking path.
// Concretely, context.Background() and context.TODO() are forbidden in
// these library packages (a detached context severs the caller's
// cancellation chain), and an exported function that calls
// context-aware code must itself accept a context.Context to thread
// into it.
package ctxflow

import (
	"go/ast"
	"go/types"

	"mpq/internal/analysis"
)

// Analyzer is the ctxflow analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "ctxflow",
	Doc: `contexts must thread through the serving-path packages

In netrun, server, cluster, cache, pqo and the root package mpq: calls
to context.Background or
context.TODO are forbidden (only main packages and tests may mint
root contexts), and every exported function that calls a
context-taking function must accept a context.Context parameter so
cancellation can reach the blocking work.`,
	Run: run,
}

// targetPkgs are the packages the invariant covers, matched by the last
// element of the package path. pqo and the root package mpq are doors
// into the dynamic program: an exported function there that mints its
// own context starts an optimization no deadline can reach (the pqo
// fixture is such a function, as it once stood in the real package);
// sma is the simulated competitor, whose rounds a SIGINT must reach.
var targetPkgs = []string{"netrun", "server", "cluster", "sma", "cache", "pqo", "mpq"}

// interfaceMethods are conventional method names pinned by interfaces
// whose contracts have no context parameter; flagging them would force
// signature breaks on io.Closer, fmt.Stringer, error and http.Handler
// implementations.
var interfaceMethods = map[string]bool{
	"Close":     true,
	"String":    true,
	"Error":     true,
	"ServeHTTP": true,
}

func run(pass *analysis.Pass) (any, error) {
	if pass.Pkg.Name() == "main" {
		return nil, nil
	}
	target := false
	for _, name := range targetPkgs {
		if analysis.PkgNameIs(pass.Pkg, name) {
			target = true
			break
		}
	}
	if !target {
		return nil, nil
	}

	// Rule 1: no detached root contexts anywhere in the package.
	pass.Inspect(func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if fn := calleeFunc(pass, call); fn != nil &&
			analysis.PkgNameIs(fn.Pkg(), "context") &&
			(fn.Name() == "Background" || fn.Name() == "TODO") {
			pass.Reportf(call.Pos(),
				"context.%s() severs the caller's cancellation chain; thread a context.Context through instead (root contexts belong to main and tests)",
				fn.Name())
		}
		return true
	})

	// Rule 2: exported functions that call context-aware code must
	// accept a context themselves.
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !fd.Name.IsExported() {
				continue
			}
			if interfaceMethods[fd.Name.Name] {
				continue
			}
			if recv := receiverNamed(pass, fd); recv != nil && !recv.Obj().Exported() {
				continue // method on an unexported type: not API surface
			}
			if hasCtxParam(pass, fd) {
				continue
			}
			if callee := firstCtxCall(pass, fd.Body); callee != nil {
				pass.Reportf(fd.Name.Pos(),
					"exported %s calls context-aware %s but does not accept a context.Context; accept one and thread it through",
					fd.Name.Name, callee.Name())
			}
		}
	}
	return nil, nil
}

// calleeFunc resolves a call to the *types.Func it invokes, or nil for
// indirect calls, conversions and builtins.
func calleeFunc(pass *analysis.Pass, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := pass.TypesInfo.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := pass.TypesInfo.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

// hasCtxParam reports whether any parameter of fd is a context.Context.
func hasCtxParam(pass *analysis.Pass, fd *ast.FuncDecl) bool {
	if fd.Type.Params == nil {
		return false
	}
	for _, field := range fd.Type.Params.List {
		if tv, ok := pass.TypesInfo.Types[field.Type]; ok {
			if _, ok := analysis.NamedTypeIn(tv.Type, "context", "Context"); ok {
				return true
			}
		}
	}
	return false
}

// receiverNamed returns the named type of fd's receiver, if any.
func receiverNamed(pass *analysis.Pass, fd *ast.FuncDecl) *types.Named {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return nil
	}
	tv, ok := pass.TypesInfo.Types[fd.Recv.List[0].Type]
	if !ok {
		return nil
	}
	t := tv.Type
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

// firstCtxCall returns the callee of the first direct call in body
// whose signature's first parameter is a context.Context — evidence
// the function does context-aware (typically blocking) work. Function
// literals are included: a goroutine the function launches still does
// its work on the caller's behalf.
func firstCtxCall(pass *analysis.Pass, body *ast.BlockStmt) *types.Func {
	var found *types.Func
	ast.Inspect(body, func(n ast.Node) bool {
		if found != nil {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := calleeFunc(pass, call)
		if fn == nil {
			return true
		}
		sig, ok := fn.Type().(*types.Signature)
		if !ok || sig.Params().Len() == 0 {
			return true
		}
		if _, ok := analysis.NamedTypeIn(sig.Params().At(0).Type(), "context", "Context"); ok {
			found = fn
			return false
		}
		return true
	})
	return found
}
