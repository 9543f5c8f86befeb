package lockorder_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mpq/internal/analysis"
	"mpq/internal/analysis/lockorder"
)

// seededReverse takes the daemon's two mutexes in the reverse of the
// order submit -> metrics.reject takes them.
const seededReverse = `package server

func (s *Server) seededReverse() {
	s.metrics.mu.Lock()
	defer s.metrics.mu.Unlock()
	s.mu.Lock()
	s.mu.Unlock()
}
`

// TestLockOrderOnTheRealServer proves the analyzer on the code it
// guards rather than on a fixture shaped like it: lockorder matches
// mutexes by struct and field name, so nothing but a run over
// internal/server shows it still sees Server.mu and metrics.mu. The
// test copies the package's non-test files into a throw-away directory
// (under testdata, so ./... never matches it), adds one function that
// inverts the lock order, and wants both edges of the cycle reported:
// at the real submit and at the seeded function.
func TestLockOrderOnTheRealServer(t *testing.T) {
	const src = "../../server"
	dir, err := os.MkdirTemp("testdata", "seeded-server-")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.RemoveAll(dir) })
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(src, name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(filepath.Join(dir, "seeded.go"), []byte(seededReverse), 0o644); err != nil {
		t.Fatal(err)
	}

	pkgs, err := analysis.Load([]string{"./" + filepath.ToSlash(dir)})
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("loaded %d packages, want 1", len(pkgs))
	}
	findings, err := analysis.RunAnalyzer(pkgs[0], lockorder.Analyzer)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []struct{ file, msg string }{
		{"server.go", "submit acquires metrics.mu while holding Server.mu"},
		{"seeded.go", "seededReverse acquires Server.mu while holding metrics.mu"},
	} {
		found := false
		for _, f := range findings {
			if filepath.Base(f.File) == want.file && strings.HasPrefix(f.Message, want.msg) {
				found = true
			}
		}
		if !found {
			t.Errorf("no finding in %s starting %q; got %v", want.file, want.msg, findings)
		}
	}
}
