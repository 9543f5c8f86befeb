package tagswitch_test

import (
	"testing"

	"mpq/internal/analysis/analysistest"
	"mpq/internal/analysis/tagswitch"
)

func TestTagSwitch(t *testing.T) {
	analysistest.Run(t, tagswitch.Analyzer, "./testdata/src/dispatch")
}
