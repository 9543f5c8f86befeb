package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
)

// A Package is one loaded, parsed and type-checked package, ready to be
// analyzed.
type Package struct {
	PkgPath string
	Name    string
	Dir     string
	GoFiles []string

	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// listEntry is the subset of `go list -json` output the loader reads.
type listEntry struct {
	ImportPath string
	Name       string
	Dir        string
	GoFiles    []string
	Export     string
	DepOnly    bool
}

// Load loads the packages matched by the go-list patterns (for example
// "./..."), type-checking each from source with imports resolved from
// compiled export data, so no network access and no dependencies
// outside the standard library are required. Test files are not
// loaded, matching `go vet`'s default compilation unit; testdata
// directories are skipped by `go list` itself.
func Load(patterns []string) ([]*Package, error) {
	args := append([]string{
		"list", "-deps", "-export",
		"-json=ImportPath,Name,Dir,GoFiles,Export,DepOnly",
		"--",
	}, patterns...)
	cmd := exec.Command("go", args...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list %v: %v\n%s", patterns, err, stderr.String())
	}

	exports := map[string]string{} // import path -> compiled export data
	var targets []*listEntry
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		e := new(listEntry)
		if err := dec.Decode(e); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("decode go list output: %v", err)
		}
		if e.Export != "" {
			exports[e.ImportPath] = e.Export
		}
		if !e.DepOnly {
			targets = append(targets, e)
		}
	}
	sort.Slice(targets, func(i, j int) bool { return targets[i].ImportPath < targets[j].ImportPath })

	fset := token.NewFileSet()
	lookup := func(path string) (io.ReadCloser, error) {
		f, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(f)
	}
	imp := importer.ForCompiler(fset, "gc", lookup)

	var pkgs []*Package
	for _, e := range targets {
		if len(e.GoFiles) == 0 {
			continue
		}
		pkg, err := typecheckDir(fset, e, imp)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// typecheckDir parses and type-checks one package's GoFiles.
func typecheckDir(fset *token.FileSet, e *listEntry, imp types.Importer) (*Package, error) {
	var files []*ast.File
	var names []string
	for _, name := range e.GoFiles {
		full := filepath.Join(e.Dir, name)
		f, err := parser.ParseFile(fset, full, nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("parse %s: %v", full, err)
		}
		files = append(files, f)
		names = append(names, full)
	}
	info := newTypesInfo()
	conf := types.Config{Importer: imp}
	tpkg, err := conf.Check(e.ImportPath, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("typecheck %s: %v", e.ImportPath, err)
	}
	return &Package{
		PkgPath: e.ImportPath,
		Name:    e.Name,
		Dir:     e.Dir,
		GoFiles: names,
		Fset:    fset,
		Files:   files,
		Types:   tpkg,
		Info:    info,
	}, nil
}

// newTypesInfo returns a types.Info with every map analyzers consult
// allocated.
func newTypesInfo() *types.Info {
	return &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Implicits:  map[ast.Node]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Scopes:     map[ast.Node]*types.Scope{},
		Instances:  map[*ast.Ident]types.Instance{},
	}
}
