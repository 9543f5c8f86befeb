package ctxflow_test

import (
	"testing"

	"mpq/internal/analysis/analysistest"
	"mpq/internal/analysis/ctxflow"
)

func TestCtxFlow(t *testing.T) {
	for _, pkg := range []string{"cache", "pqo"} {
		analysistest.Run(t, "testdata", ctxflow.Analyzer, pkg)
	}
}
