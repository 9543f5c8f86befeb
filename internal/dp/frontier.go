package dp

import "mpq/internal/plan"

// frontierInline is the number of plans a frontier stores without
// touching the heap. Single-objective pruning retains exactly one plan
// per table set and order-aware pruning rarely more than two, so two
// inline slots eliminate the per-table-set slice allocation for the
// dominant case; multi-objective frontiers spill.
const frontierInline = 2

// frontier is a memo entry's retained plans, in the order the set's
// records were kept. The first frontierInline plans live inline in the
// value (no heap allocation), further plans spill to a slice. The zero
// value is an empty frontier.
//
// A frontier is a value type so the memo can embed it directly in its
// entries; copies share the spill slice, so after copying only one of
// the copies may keep appending (the DP builds each entry once and then
// only reads it).
type frontier struct {
	n      int
	inline [frontierInline]*plan.Node
	spill  []*plan.Node
}

// Len returns the number of retained plans.
func (f *frontier) Len() int { return f.n }

// At returns the i-th retained plan (0 ≤ i < Len).
func (f *frontier) At(i int) *plan.Node {
	if i < frontierInline {
		return f.inline[i]
	}
	return f.spill[i-frontierInline]
}

// Append adds p after the retained plans.
func (f *frontier) Append(p *plan.Node) {
	if f.n < frontierInline {
		f.inline[f.n] = p
	} else {
		f.spill = append(f.spill, p)
	}
	f.n++
}

// reset empties the frontier for reuse, keeping any spill capacity it
// still owns.
func (f *frontier) reset() {
	for i := range f.inline {
		f.inline[i] = nil
	}
	f.n = 0
	if f.spill != nil {
		f.spill = f.spill[:0]
	}
}

// Slice returns the retained plans as a freshly allocated slice.
func (f *frontier) Slice() []*plan.Node {
	if f.n == 0 {
		return nil
	}
	out := make([]*plan.Node, f.n)
	for i := range out {
		out[i] = f.At(i)
	}
	return out
}
