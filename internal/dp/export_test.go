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
// inspect the engine after a run.
func (e *Engine) RunAll() error {
	for k := 2; k <= e.w.q.N(); k++ {
		if err := e.Level(context.Background(), k, nil); err != nil {
			return err
		}
	}
	return nil
}

// HelperSets is the number of sets the engine's helpers treated, so a
// test at width can tell that they took part.
func (e *Engine) HelperSets() uint64 {
	var sets uint64
	for i := range e.helpers {
		sets += e.helpers[i].stats.SetsProcessed
	}
	return sets
}
