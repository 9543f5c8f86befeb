package dp

import (
	"context"
	"fmt"
	"math"

	"mpq/internal/bitset"
	"mpq/internal/plan"
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

// keysMirrorRecs returns an error unless w's keys mirror its records:
// as many keys as records, and each key the cost and second metric of
// the record at its index, bit for bit.
func keysMirrorRecs(w *worker) error {
	recs, keys := *w.recs, *w.keys
	if len(keys) != len(recs) {
		return fmt.Errorf("dp: %d keys for %d records", len(keys), len(recs))
	}
	for i, k := range keys {
		r := &recs[i]
		if math.Float64bits(k.cost) != math.Float64bits(r.cost) || math.Float64bits(k.second) != math.Float64bits(r.second) {
			return fmt.Errorf("dp: key %d is (%g, %g), its record (%g, %g)", i, k.cost, k.second, r.cost, r.second)
		}
	}
	return nil
}

// keyCheck is an afterKeep hook that calls fail with each error
// keysMirrorRecs finds.
func keyCheck(fail func(error)) func(*worker) {
	return func(w *worker) {
		if err := keysMirrorRecs(w); err != nil {
			fail(err)
		}
	}
}

// CheckKeys makes the engine's workers check keysMirrorRecs after every
// keep, calling fail with each error it finds.
func (e *Engine) CheckKeys(fail func(error)) {
	e.w.afterKeep = keyCheck(fail)
	for i := range e.helpers {
		e.helpers[i].afterKeep = keyCheck(fail)
	}
}

// PruneCheckingKeys is Prune with keysMirrorRecs checked after every
// keep, calling fail with each error it finds.
func PruneCheckingKeys(fail func(error), p Pruner, plans ...[]*plan.Node) []*plan.Node {
	return prune(p, keyCheck(fail), plans)
}
