package arenaescape_test

import (
	"testing"

	"mpq/internal/analysis/analysistest"
	"mpq/internal/analysis/arenaescape"
)

func TestArenaEscape(t *testing.T) {
	analysistest.Run(t, arenaescape.Analyzer, "./testdata/src/pooluser")
}

// TestArenaItselfExempt runs the analyzer over the real plan package,
// which carries no want comment: Arena methods return their own nodes
// by design and must not be flagged.
func TestArenaItselfExempt(t *testing.T) {
	analysistest.Run(t, arenaescape.Analyzer, "mpq/internal/plan")
}
