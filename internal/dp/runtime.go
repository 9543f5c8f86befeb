package dp

import "mpq/internal/plan"

// Runtime bundles the reusable per-run memory of one DP worker: the
// plan-node arena the memo's plans are built in, the memo array, the
// per-table scan entries, the memo frontiers' spill slabs, and the
// records OrderAware and Pareto keep for the table set under
// construction. A fresh run borrows them through Options.Runtime
// instead of growing them from scratch, so a worker that optimizes a
// stream of queries — one of core's runtime slots, which every engine's
// partitions run on — reaches a steady state where the dynamic program
// performs (almost) no heap allocation at all: candidates are free,
// survivors come out of recycled slabs, and the memo and the records
// reuse their capacity.
//
// A Runtime may back at most one engine at a time: NewEngine resets the
// arena and memo, invalidating every node of the previous run. The
// engine's Finish therefore deep-copies the surviving root plans out of
// the arena (plan.CloneTree) before returning them, which is what makes
// reusing runtimes safe — a returned Result never references runtime
// memory.
//
// A Runtime also keeps the memory of the run's helper workers
// (Options.Helpers): each helper's arena, spill slabs and records, made
// on first use and recycled like the rest. A helper borrows only a core;
// its plans stay in the run's own runtime until Finish.
//
// Not safe for concurrent use: hand a Runtime to one run at a time, as
// core's slots do.
type Runtime struct {
	// The padding keeps the arena's counters, written on every plan
	// node, off cache lines shared with another object — such as the
	// runtime allocated next to this one that another core is running.
	_      [64]byte
	arena  plan.Arena
	memo   []entry
	scans  []entry
	spills spillArena
	recs   []record
	// helpers holds the memory of the run's helper workers.
	helpers []*Runtime
	_       [64]byte
}

// NewRuntime returns an empty runtime; the arena and memo grow on
// first use and are recycled afterwards.
func NewRuntime() *Runtime { return &Runtime{} }

// helper returns the memory of the run's i-th helper worker, made on
// first use. Only its arena, spill slabs and records are used.
func (rt *Runtime) helper(i int) *Runtime {
	for len(rt.helpers) <= i {
		rt.helpers = append(rt.helpers, NewRuntime())
	}
	return rt.helpers[i]
}

// memoFor returns the runtime's memo array as slots empty entries,
// growing it for the largest run so far. Only the returned prefix is
// cleared: a run cannot reach what a larger earlier run left beyond it,
// and a small query does not pay for a multi-megabyte memset.
func (rt *Runtime) memoFor(slots int) []entry {
	if len(rt.memo) < slots {
		rt.memo = make([]entry, slots)
	} else {
		clear(rt.memo[:slots])
	}
	return rt.memo[:slots:slots]
}

// scansFor returns the runtime's per-table scan-entry slice sized for an
// n-table query; NewEngine overwrites every element.
func (rt *Runtime) scansFor(n int) []entry {
	if cap(rt.scans) < n {
		rt.scans = make([]entry, n)
	}
	return rt.scans[:n]
}

// spillSlabLen is the pointer count per spill slab (8 KiB of plan
// pointers).
const spillSlabLen = 1024

// spillArena hands out the memo's spilled-frontier storage from
// contiguous, recyclable slabs, mirroring what plan.Arena does for
// nodes: most table sets keep ≤ frontierInline plans and never touch
// it, but order-aware and multi-objective runs spill often enough that
// per-set spill slices would dominate the steady-state allocation
// count.
type spillArena struct {
	slabs [][]*plan.Node
	si    int // slab currently being carved
	used  int // pointers handed out from slabs[si]
}

// clone copies src into a fresh region. The region's capacity is
// clamped to its length, so an append to the copy can never run into a
// neighbouring region.
func (a *spillArena) clone(src []*plan.Node) []*plan.Node {
	n := len(src)
	if n > spillSlabLen { // degenerate frontier wider than a slab
		out := make([]*plan.Node, n)
		copy(out, src)
		return out
	}
	for {
		if a.si < len(a.slabs) {
			if slab := a.slabs[a.si]; a.used+n <= len(slab) {
				out := slab[a.used : a.used+n : a.used+n]
				a.used += n
				copy(out, src)
				return out
			}
			a.si++ // tail too small; waste it and carve the next slab
			a.used = 0
			continue
		}
		a.slabs = append(a.slabs, make([]*plan.Node, spillSlabLen))
	}
}

// reset recycles every slab; regions handed out so far are invalidated.
func (a *spillArena) reset() { a.si, a.used = 0, 0 }
