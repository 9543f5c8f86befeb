package ctxflow

import (
	"os"
	"os/exec"
	"path"
	"strings"
	"testing"
)

// TestTargetPackagesExist pins targetPkgs to the tree: the analyzer
// matches packages by name, so a renamed package would silently leave
// the invariant's scope. Every name must be the last path element of a
// package `go list mpq/...` returns. That the analyzer fires on netrun
// needs no seeded copy: the live //lint:allow ctxflow directive on the
// frame endpoint's connection-lifetime root proves it — a directive
// that suppresses nothing is itself a finding, so a clean `mpqlint
// ./...` means it still has a finding to suppress. The server package
// has no such root any more; the fixture testdata/src/server, a package
// of that name, proves the analyzer fires on it (TestCtxFlow).
func TestTargetPackagesExist(t *testing.T) {
	out, err := exec.Command("go", "list", "-f", "{{.ImportPath}}\t{{.Dir}}", "mpq/...").Output()
	if err != nil {
		t.Fatalf("go list mpq/...: %v", err)
	}
	dirs := map[string]string{} // last path element -> directory
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		pkg, dir, _ := strings.Cut(line, "\t")
		dirs[path.Base(pkg)] = dir
	}
	for _, name := range targetPkgs {
		dir, ok := dirs[name]
		if !ok {
			t.Errorf("targetPkgs names %q, but no package in the module is called that", name)
			continue
		}
		// go test replays a cached pass until something this process
		// itself touched changes; `go list` is a child it cannot see.
		_, _ = os.Stat(dir)
	}
}
