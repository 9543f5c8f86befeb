package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"strings"
	"testing"
)

// demoSrc exercises every branch of the //lint:allow lifecycle with a
// demo analyzer that reports once per function declaration.
const demoSrc = `package demo

func trailing() int { return 1 } //lint:allow demo trailing directives cover their own line

//lint:allow demo a directive on its own line covers the next line
func nextline() int { return 2 }

func unsuppressed() int { return 3 }

//lint:allow demo
func missingreason() int { return 4 }

//lint:allow nosuch reasons do not save an unknown analyzer name
func unknown() int { return 5 }

//lint:allow demo this one is stale: the demo analyzer reports nothing below

var alive = 6
`

func demoPackage(t *testing.T) *Package {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "demo.go", demoSrc, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	info := newTypesInfo()
	tpkg, err := (&types.Config{}).Check("demo", fset, []*ast.File{f}, info)
	if err != nil {
		t.Fatal(err)
	}
	return &Package{
		PkgPath: "demo", Name: "demo", GoFiles: []string{"demo.go"},
		Fset: fset, Files: []*ast.File{f}, Types: tpkg, Info: info,
	}
}

// demoAnalyzer reports one finding per function declaration, at the
// function's name.
var demoAnalyzer = &Analyzer{
	Name: "demo",
	Doc:  "reports every function declaration (test analyzer)",
	Run: func(pass *Pass) (any, error) {
		for _, f := range pass.Files {
			for _, decl := range f.Decls {
				if fd, ok := decl.(*ast.FuncDecl); ok {
					pass.Reportf(fd.Name.Pos(), "function %s declared", fd.Name.Name)
				}
			}
		}
		return nil, nil
	},
}

func TestRunSuiteDirectiveLifecycle(t *testing.T) {
	pkg := demoPackage(t)
	findings, err := RunSuite(pkg, []*Analyzer{demoAnalyzer})
	if err != nil {
		t.Fatal(err)
	}

	var got []string
	for _, f := range findings {
		got = append(got, f.Analyzer+": "+f.Message)
	}

	// Suppressed: trailing (same line), nextline (directive above).
	for _, name := range []string{"trailing", "nextline"} {
		if containsSubstring(got, "function "+name+" declared") {
			t.Errorf("finding for %s should be suppressed; got %v", name, got)
		}
	}
	// Kept: unsuppressed; missingreason and unknown keep their findings
	// because their directives are invalid.
	for _, name := range []string{"unsuppressed", "missingreason", "unknown"} {
		if !containsSubstring(got, "function "+name+" declared") {
			t.Errorf("finding for %s should survive; got %v", name, got)
		}
	}
	// Directive hygiene findings, attributed to the pseudo-analyzer.
	for _, wantMsg := range []string{
		"missing its reason",
		`unknown analyzer "nosuch"`,
		"suppresses nothing here; delete the stale exception",
	} {
		if !containsSubstring(got, wantMsg) {
			t.Errorf("expected a %s finding matching %q; got %v", DirectiveAnalyzer, wantMsg, got)
		}
	}
	for _, f := range findings {
		if strings.Contains(f.Message, "lint:allow") && f.Analyzer != DirectiveAnalyzer {
			t.Errorf("directive finding misattributed to %s: %s", f.Analyzer, f.Message)
		}
	}
}

// TestRunAnalyzerSkipsDirectiveHygiene pins the analysistest contract:
// single-analyzer runs honor suppression but do not report directive
// hygiene (a fixture for one analyzer may carry allows for others).
func TestRunAnalyzerSkipsDirectiveHygiene(t *testing.T) {
	pkg := demoPackage(t)
	findings, err := RunAnalyzer(pkg, demoAnalyzer)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		if f.Analyzer == DirectiveAnalyzer {
			t.Errorf("RunAnalyzer reported directive hygiene: %s", f)
		}
		if strings.Contains(f.Message, "trailing") || strings.Contains(f.Message, "nextline") {
			t.Errorf("suppressed finding leaked: %s", f)
		}
	}
}

func containsSubstring(haystack []string, sub string) bool {
	for _, s := range haystack {
		if strings.Contains(s, sub) {
			return true
		}
	}
	return false
}
