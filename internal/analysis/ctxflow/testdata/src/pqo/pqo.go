// Package pqo reproduces the violation that put the real pqo (and the
// root package mpq, which re-exported it) under the ctxflow analyzer:
// the parametric entry point as it stood before parametric
// optimization became a JobSpec.
package pqo

import "context"

// optimizeContext stands in for core.OptimizeContext.
func optimizeContext(ctx context.Context, workers int) (int, error) {
	return workers, ctx.Err()
}

// Optimize could not be canceled or given a deadline. Flagged twice.
func Optimize(workers int) (int, error) { // want "exported Optimize calls context-aware optimizeContext but does not accept a context.Context"
	// The parametric API predates contexts and takes none.
	return optimizeContext(context.TODO(), workers) // want "context.TODO.. severs the caller"
}
