package dp

import (
	"context"

	"mpq/internal/bitset"
)

// CardHiFor exposes the high-endpoint cardinality the memo tracks for
// table set u, which a plan tree does not carry: the exact-arithmetic
// test needs it to recompute a robust plan's Buffer annotation.
func (e *Engine) CardHiFor(u bitset.Set) (float64, bool) {
	ent := e.w.lookup(u)
	return ent.cardHi, ent.f.Len() > 0
}

// RunAll is RunContext's loop without its Finish, so that a test can
// inspect the engine after a run that took the ranks the enumerator and
// the splitter hand over.
func (e *Engine) RunAll() error { return e.run(context.Background()) }
