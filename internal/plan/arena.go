// Plan-node arena: a slab allocator that backs the dynamic program's
// surviving plans with contiguous memory.
//
// The DP's cost-first pruning (PR 1) made *pruned* candidates free, but
// every *survivor* still cost one heap-allocated Node, and large runs
// keep tens of thousands of survivors. Handing survivors out of chunked
// slabs removes the per-node allocation, keeps plans that reference each
// other adjacent in memory (operand pointers almost always point into
// the same or a neighbouring slab), and lets a batch of queries recycle
// the slabs via Reset instead of re-growing the heap — the discipline
// production optimizers (DuckDB's arena-backed join-order DP, Umbra's
// region allocators) use to keep large-clique DP runs off the allocator.
package plan

import (
	"mpq/internal/cost"
	"mpq/internal/query"
)

// slabNodes is the number of nodes per slab. At roughly 100 bytes per
// Node a slab is ~100 KiB: big enough that slab allocation is noise
// even for million-survivor runs, small enough that tiny partitions
// don't hold megabytes hostage in a pooled runtime.
const slabNodes = 1024

// Arena hands out plan nodes from contiguous slabs. Node values built
// through an arena are bit-identical to the heap constructors' (they
// share the construction code); only the allocation site differs.
//
// The zero value is an empty arena; slabs are allocated on demand. An
// arena is not safe for concurrent use; each DP worker owns one.
// All nodes handed out since the last Reset remain valid until the next
// Reset — callers that retain plans past a Reset (e.g. a pooled runtime
// recycling slabs between queries) must copy them out first, see
// CloneTree.
type Arena struct {
	slabs [][]Node
	si    int // slab currently being filled
	used  int // nodes handed out from slabs[si]
}

// alloc returns a pointer to the next free slab slot, growing by one
// slab when the recycled ones are exhausted.
func (a *Arena) alloc() *Node {
	for {
		if a.si < len(a.slabs) {
			if slab := a.slabs[a.si]; a.used < len(slab) {
				n := &slab[a.used]
				a.used++
				return n
			}
			a.si++
			a.used = 0
			continue
		}
		a.slabs = append(a.slabs, make([]Node, slabNodes))
	}
}

// Scan is Scan allocating from the arena.
func (a *Arena) Scan(m cost.Model, q *query.Query, t int) *Node {
	n := a.alloc()
	*n = scanNode(m, q, t)
	return n
}

// Join is Join allocating from the arena.
func (a *Arena) Join(m cost.Model, l, r *Node, spec JoinSpec) *Node {
	c, buf := JoinScalars(m, l, r, spec)
	return a.JoinWithScalars(l, r, spec, c, buf)
}

// JoinWithScalars is JoinWithScalars allocating from the arena — the
// DP's survivor path.
func (a *Arena) JoinWithScalars(l, r *Node, spec JoinSpec, costv, buffer float64) *Node {
	n := a.alloc()
	*n = joinNode(l, r, spec, costv, buffer)
	return n
}

// Reset recycles every slab for a new run: nodes handed out so far are
// invalidated (their memory will be overwritten) but no slab memory is
// released, so a run of similar size allocates nothing. Slot contents
// are not zeroed — every alloc writes a complete Node value.
func (a *Arena) Reset() {
	a.si, a.used = 0, 0
}

// Allocated returns the number of nodes handed out since the last
// Reset.
func (a *Arena) Allocated() int {
	n := a.used
	for i := 0; i < a.si && i < len(a.slabs); i++ {
		n += len(a.slabs[i])
	}
	return n
}

// Slabs returns the number of slabs the arena owns (allocation-reuse
// tests assert this stops growing across Resets).
func (a *Arena) Slabs() int { return len(a.slabs) }

// CloneTree deep-copies a plan into fresh heap nodes. It is how
// surviving plans escape an arena whose slabs are about to be recycled:
// the copy carries identical annotations (wire fingerprints are
// unchanged) but shares no memory with the arena. A plan is a proper
// tree (operand table sets are disjoint), so the copy has exactly one
// node per operator.
func CloneTree(n *Node) *Node {
	if n == nil {
		return nil
	}
	c := *n
	if !n.IsScan {
		c.Left = CloneTree(n.Left)
		c.Right = CloneTree(n.Right)
	}
	return &c
}
