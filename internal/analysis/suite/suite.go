// Package suite registers every analyzer cmd/mpqlint runs. The
// meta-test in internal/analysis/suite_test.go walks this list and
// refuses any analyzer that ships without golden fixtures, so adding
// an entry here without testdata fails the build.
package suite

import (
	"mpq/internal/analysis"
	"mpq/internal/analysis/arenaescape"
	"mpq/internal/analysis/ctxflow"
	"mpq/internal/analysis/lockorder"
	"mpq/internal/analysis/nilness"
	"mpq/internal/analysis/tagswitch"
)

// All returns the full analyzer suite in the order findings are
// attributed: the four repository-invariant analyzers first, then the
// stdlib-only port of the upstream nilness pass, which `go vet` does not
// run by default (the offline build cannot vendor golang.org/x/tools).
// copylocks and lostcancel are left to `go vet`, which scripts/lint.sh
// runs beside this suite.
func All() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		arenaescape.Analyzer,
		ctxflow.Analyzer,
		lockorder.Analyzer,
		tagswitch.Analyzer,
		nilness.Analyzer,
	}
}
