package ctxflow_test

import (
	"testing"

	"mpq/internal/analysis/analysistest"
	"mpq/internal/analysis/ctxflow"
)

func TestCtxFlow(t *testing.T) {
	analysistest.Run(t, ctxflow.Analyzer, "./testdata/src/cache")
	analysistest.Run(t, ctxflow.Analyzer, "./testdata/src/pqo")
	analysistest.Run(t, ctxflow.Analyzer, "./testdata/src/server")
}
