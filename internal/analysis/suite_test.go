package analysis_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mpq/internal/analysis/suite"
)

// TestEveryAnalyzerShipsFixtures enforces the suite's own hygiene: an
// analyzer registered in suite.All() must ship golden fixtures that
// demonstrate both a flagged case (a `// want` expectation) and a
// deliberate exception (a `//lint:allow <name>` directive), plus the
// analysistest runner that executes them — and the runner must load
// every fixture package it ships, by its literal ./testdata/src/<pkg>
// path: a fixture no test loads proves nothing. An analyzer nobody can
// see fire — or nobody knows how to silence — does not belong in the
// blocking CI gate.
func TestEveryAnalyzerShipsFixtures(t *testing.T) {
	analyzers := suite.All()
	if len(analyzers) == 0 {
		t.Fatal("suite.All() is empty")
	}
	seen := map[string]bool{}
	for _, a := range analyzers {
		if a.Name == "" {
			t.Fatal("analyzer with empty name registered")
		}
		if seen[a.Name] {
			t.Fatalf("analyzer name %q registered twice", a.Name)
		}
		seen[a.Name] = true
		if a.Doc == "" {
			t.Errorf("%s: empty Doc", a.Name)
		}
		if a.Run == nil {
			t.Errorf("%s: nil Run", a.Name)
		}

		dir := a.Name // internal/analysis/<name>, relative to this test
		runner, err := os.ReadFile(filepath.Join(dir, a.Name+"_test.go"))
		if err != nil {
			t.Errorf("%s: missing analysistest runner %s/%s_test.go: %v", a.Name, dir, a.Name, err)
			continue
		}
		src := filepath.Join(dir, "testdata", "src")
		fixtures, err := os.ReadDir(src)
		if err != nil {
			t.Errorf("%s: %v", a.Name, err)
		}
		for _, fx := range fixtures {
			if load := "./testdata/src/" + fx.Name(); !strings.Contains(string(runner), `"`+load+`"`) {
				t.Errorf("%s: %s_test.go never loads fixture %q", a.Name, a.Name, load)
			}
		}
		wants, allows := scanFixtures(t, src, a.Name)
		if wants == 0 {
			t.Errorf("%s: no `// want` expectation in any fixture under %s/testdata/src — the analyzer never demonstrably fires", a.Name, dir)
		}
		if allows == 0 {
			t.Errorf("%s: no `//lint:allow %s` directive in any fixture under %s/testdata/src — the suppression path is untested", a.Name, a.Name, dir)
		}
	}
}

// scanFixtures counts want expectations and allow directives for the
// named analyzer across every fixture source file.
func scanFixtures(t *testing.T, root, name string) (wants, allows int) {
	t.Helper()
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		src := string(data)
		wants += strings.Count(src, "// want ")
		allows += strings.Count(src, "//lint:allow "+name+" ")
		return nil
	})
	if err != nil {
		t.Errorf("%s: walking fixtures: %v", name, err)
	}
	return wants, allows
}
