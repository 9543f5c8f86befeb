package nilness_test

import (
	"testing"

	"mpq/internal/analysis/analysistest"
	"mpq/internal/analysis/nilness"
)

func TestNilness(t *testing.T) {
	analysistest.Run(t, nilness.Analyzer, "./testdata/src/nilcheck")
}
