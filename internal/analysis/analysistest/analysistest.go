// Package analysistest runs an analyzer over golden fixture packages,
// mirroring golang.org/x/tools/go/analysis/analysistest. A fixture is
// an ordinary package under <analyzer>/testdata/src/<pkg>/ — it builds,
// vets, and imports the repository's own packages (mpq/internal/plan,
// mpq/internal/wire) rather than stubs of them, so an analyzer is
// proven against the code it guards. Fixtures are loaded by
// analysis.Load, the loader mpqlint itself uses; `./...` never matches
// a testdata directory, so the build, vet and lint gates do not see
// them. Expected findings are `// want "regexp"` comments on the
// offending line, and //lint:allow directives are honored exactly as
// in production runs — so every fixture can demonstrate both a flagged
// and an allowed case.
package analysistest

import (
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"

	"mpq/internal/analysis"
)

// Run loads the one package the go-list pattern names (conventionally
// "./testdata/src/<pkg>", relative to the test's directory), applies
// the analyzer, and compares its findings against the package's
// // want comments.
func Run(t *testing.T, a *analysis.Analyzer, pattern string) {
	t.Helper()
	pkgs, err := analysis.Load([]string{pattern})
	if err != nil {
		t.Fatalf("load %s: %v", pattern, err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("load %s: %d packages, want exactly one", pattern, len(pkgs))
	}
	pkg := pkgs[0]
	statModuleImports(pkg)
	findings, err := analysis.RunAnalyzer(pkg, a)
	if err != nil {
		t.Fatalf("run %s on %s: %v", a.Name, pattern, err)
	}
	expects := parseWants(t, pkg)

	matched := make([]bool, len(expects))
	for _, f := range findings {
		ok := false
		for i, w := range expects {
			if matched[i] || w.file != f.File || w.line != f.Line {
				continue
			}
			if w.re.MatchString(f.Message) {
				matched[i] = true
				ok = true
				break
			}
		}
		if !ok {
			t.Errorf("unexpected finding: %s", f)
		}
	}
	for i, w := range expects {
		if !matched[i] {
			t.Errorf("%s:%d: expected finding matching %q, got none", w.file, w.line, w.re)
		}
	}
}

// statModuleImports stats the source files of the repository packages
// pkg imports. go test replays a cached pass until a file the test
// process itself touched changes, and the loader reads a fixture's
// imports in a `go list` child it cannot see — so without this a new
// wire.Tag or Arena method would replay yesterday's verdict instead of
// rerunning the fixture.
func statModuleImports(pkg *analysis.Package) {
	module, rel, _ := strings.Cut(pkg.PkgPath, "/")
	root := strings.TrimSuffix(pkg.Dir, filepath.FromSlash(rel))
	for _, imp := range pkg.Types.Imports() {
		dir, ok := strings.CutPrefix(imp.Path(), module+"/")
		if !ok {
			continue
		}
		files, _ := filepath.Glob(filepath.Join(root, filepath.FromSlash(dir), "*.go"))
		for _, f := range files {
			_, _ = os.Stat(f) // only the test log's record of the call matters
		}
	}
}

// want is one expectation parsed from a fixture comment.
type want struct {
	file string
	line int
	re   *regexp.Regexp
}

var wantRE = regexp.MustCompile(`"((?:[^"\\]|\\.)*)"`)

// parseWants extracts `// want "re" ["re" ...]` comments. The
// expectation anchors to the comment's own line.
func parseWants(t *testing.T, pkg *analysis.Package) []want {
	t.Helper()
	var out []want
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				idx := strings.Index(c.Text, "// want ")
				if idx < 0 {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				matches := wantRE.FindAllStringSubmatch(c.Text[idx:], -1)
				if len(matches) == 0 {
					t.Fatalf("%s:%d: malformed want comment %q", pos.Filename, pos.Line, c.Text)
				}
				for _, m := range matches {
					re, err := regexp.Compile(m[1])
					if err != nil {
						t.Fatalf("%s:%d: bad want regexp %q: %v", pos.Filename, pos.Line, m[1], err)
					}
					out = append(out, want{file: pos.Filename, line: pos.Line, re: re})
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].file != out[j].file {
			return out[i].file < out[j].file
		}
		return out[i].line < out[j].line
	})
	return out
}
