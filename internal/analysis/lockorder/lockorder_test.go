package lockorder_test

import (
	"testing"

	"mpq/internal/analysis/analysistest"
	"mpq/internal/analysis/lockorder"
)

// TestLockOrder runs the analyzer over the regression fixture that
// reproduces the pre-fix PR 8 CellCache deadlock (Stats vs BestAt) —
// the shape the concurrency canary originally caught at runtime.
func TestLockOrder(t *testing.T) {
	analysistest.Run(t, lockorder.Analyzer, "./testdata/src/pqo")
}
