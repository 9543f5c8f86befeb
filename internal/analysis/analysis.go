// Package analysis is a self-contained, stdlib-only analogue of
// golang.org/x/tools/go/analysis: a tiny framework for writing
// type-checked static analyzers plus a driver that loads packages
// through `go list`, type-checks them, runs a suite of analyzers and
// honors `//lint:allow <analyzer> <reason>` suppression directives.
//
// It exists because this repository upholds invariants no stock tool
// checks — arena-allocated plan nodes must not escape a pooled
// dp.Runtime, multi-mutex structs must acquire locks in one global
// order, contexts must flow through every blocking path, and every
// wire.Tag dispatch switch must account for every frame kind — and the
// build environment is fully offline (no module proxy), so the real
// x/tools module cannot be a dependency. The API deliberately mirrors
// go/analysis (Analyzer, Pass, Diagnostic) so the analyzers port
// mechanically if the dependency ever becomes available.
//
// See docs/static-analysis.md for the catalogue of analyzers, the
// directive format, and how the suite is wired into CI.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// An Analyzer describes one static analysis: a name diagnostics are
// attributed to (and that //lint:allow directives reference), a doc
// string shown by `mpqlint -list`, and the Run function.
type Analyzer struct {
	// Name identifies the analyzer. It must be a valid Go identifier in
	// lower case; it appears in diagnostics and allow directives.
	Name string
	// Doc is the analyzer's documentation: one summary line, then a
	// blank line, then the invariant it enforces.
	Doc string
	// Run applies the analyzer to one package. It reports findings via
	// pass.Report/Reportf. The result value is unused by the driver and
	// exists only for API symmetry with go/analysis.
	Run func(*Pass) (any, error)
}

// A Pass provides one analyzer's view of one type-checked package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	report func(Diagnostic)
}

// A Diagnostic is one finding at one position.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Report records a diagnostic.
func (p *Pass) Report(d Diagnostic) { p.report(d) }

// Reportf records a diagnostic at pos with a formatted message.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// PkgNameIs reports whether the package path's last element is name.
// Analyzers match the repository's packages this way (for example
// "mpq/internal/cache" by "cache") so the same analyzer applies to a
// fixture package of that name under its testdata/src.
func PkgNameIs(pkg *types.Package, name string) bool {
	if pkg == nil {
		return false
	}
	path := pkg.Path()
	if path == name {
		return true
	}
	for i := len(path) - 1; i >= 0; i-- {
		if path[i] == '/' {
			return path[i+1:] == name
		}
	}
	return false
}

// NamedTypeIn reports whether t (after stripping pointers and aliases)
// is the named type pkgName.typeName, matching the package by
// PkgNameIs. It returns the named type when it matches.
func NamedTypeIn(t types.Type, pkgName, typeName string) (*types.Named, bool) {
	for {
		switch u := t.(type) {
		case *types.Pointer:
			t = u.Elem()
			continue
		case *types.Alias:
			t = types.Unalias(t)
			continue
		}
		break
	}
	named, ok := t.(*types.Named)
	if !ok {
		return nil, false
	}
	obj := named.Obj()
	if obj.Name() != typeName || !PkgNameIs(obj.Pkg(), pkgName) {
		return nil, false
	}
	return named, true
}
