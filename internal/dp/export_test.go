package dp

import "mpq/internal/bitset"

// CardHiFor exposes the high-endpoint cardinality the memo tracks for
// table set u, which a plan tree does not carry: the exact-arithmetic
// test needs it to recompute a robust plan's Buffer annotation.
func (e *Engine) CardHiFor(u bitset.Set) (float64, bool) {
	ent := e.w.lookup(u)
	return ent.cardHi, ent.f.Len() > 0
}
