package plan

import (
	"testing"

	"mpq/internal/cost"
	"mpq/internal/query"
)

func arenaQuery(t testing.TB) *query.Query {
	t.Helper()
	q := query.MustNew([]query.Table{
		{Cardinality: 100}, {Cardinality: 200}, {Cardinality: 50},
	})
	q.MustAddPredicate(query.Predicate{Left: 0, Right: 1, Selectivity: 0.1})
	q.MustAddPredicate(query.Predicate{Left: 1, Right: 2, Selectivity: 0.5})
	q.Freeze()
	return q
}

// Arena constructors must produce nodes bit-identical to the heap
// constructors: they share the construction code, and the DP's
// bit-identity guarantee across arena-on/arena-off runs rests on it.
func TestArenaConstructorsMatchHeap(t *testing.T) {
	q := arenaQuery(t)
	m := cost.Default()
	a := &Arena{}

	for tbl := 0; tbl < q.N(); tbl++ {
		heap := Scan(m, q, tbl)
		got := a.Scan(m, q, tbl)
		if *got != *heap {
			t.Fatalf("arena scan %d = %+v, heap %+v", tbl, got, heap)
		}
	}

	l, r := Scan(m, q, 0), Scan(m, q, 1)
	spec := JoinSpec{Alg: cost.Hash, OutCard: 100 * 200 * 0.1, Pred: NoPred, Order: query.NoOrder}
	heap := Join(m, l, r, spec)
	got := a.Join(m, l, r, spec)
	if got.Card != heap.Card || got.Cost != heap.Cost || got.Buffer != heap.Buffer ||
		got.Tables != heap.Tables || got.Order != heap.Order || got.Alg != heap.Alg {
		t.Fatalf("arena join = %+v, heap %+v", got, heap)
	}

	c, buf := JoinScalars(m, l, r, spec)
	heap2 := JoinWithScalars(l, r, spec, c, buf)
	got2 := a.JoinWithScalars(l, r, spec, c, buf)
	if got2.Cost != heap2.Cost || got2.Buffer != heap2.Buffer {
		t.Fatalf("arena JoinWithScalars = %+v, heap %+v", got2, heap2)
	}
}

// The arena writes a node's fields in place into a recycled slot, so a
// join built where a scan was, or a scan where a join was, must carry
// no field of the slot's last node: each equals its heap twin field for
// field.
func TestArenaRecycledSlotsMatchHeap(t *testing.T) {
	q := arenaQuery(t)
	m := cost.Default()
	a := &Arena{}
	l, r := Scan(m, q, 0), Scan(m, q, 1)
	specs := []JoinSpec{
		{Alg: cost.Hash, OutCard: 2000, Pred: NoPred, Order: query.NoOrder},
		{Alg: cost.NestedLoop, OutCard: 2000, Pred: NoPred, Order: query.NoOrder},
		{Alg: cost.SortMerge, OutCard: 2000, Pred: 0, Order: query.AttrID(0, 1), LSorted: true},
	}
	for i := 0; i < slabNodes; i++ {
		n := a.Scan(m, q, 1+i%2) // Table ≠ 0
		n.Order = query.AttrID(n.Table, 2)
	}
	a.Reset()
	for i := 0; i < slabNodes; i++ {
		spec := specs[i%len(specs)]
		c, buf := JoinScalars(m, l, r, spec)
		if got, want := a.JoinWithScalars(l, r, spec, c, buf), JoinWithScalars(l, r, spec, c, buf); *got != *want {
			t.Fatalf("join in a scan's slot %d = %+v, heap %+v", i, *got, *want)
		}
	}
	a.Reset()
	for i := 0; i < slabNodes; i++ {
		tbl := i % q.N()
		if got, want := a.Scan(m, q, tbl), Scan(m, q, tbl); *got != *want {
			t.Fatalf("scan in a join's slot %d = %+v, heap %+v", i, *got, *want)
		}
	}
}

// Reset must recycle slabs: a second run of the same size allocates no
// new slab, and Allocated tracks the hand-out count.
func TestArenaResetRecyclesSlabs(t *testing.T) {
	q := arenaQuery(t)
	m := cost.Default()
	a := &Arena{}

	const nodes = 3 * slabNodes / 2 // force a second slab
	for i := 0; i < nodes; i++ {
		a.Scan(m, q, i%q.N())
	}
	if got := a.Allocated(); got != nodes {
		t.Fatalf("Allocated = %d, want %d", got, nodes)
	}
	slabs := a.Slabs()
	if slabs < 2 {
		t.Fatalf("expected ≥2 slabs after %d nodes, got %d", nodes, slabs)
	}

	for round := 0; round < 3; round++ {
		a.Reset()
		if got := a.Allocated(); got != 0 {
			t.Fatalf("Allocated after Reset = %d", got)
		}
		for i := 0; i < nodes; i++ {
			a.Scan(m, q, i%q.N())
		}
		if a.Slabs() != slabs {
			t.Fatalf("round %d: slab count grew from %d to %d — Reset did not recycle", round, slabs, a.Slabs())
		}
	}
}

// A warm arena hands out nodes without allocating (slab allocation is
// amortized away entirely once the slabs exist).
func TestArenaAllocFreeWhenWarm(t *testing.T) {
	q := arenaQuery(t)
	m := cost.Default()
	a := &Arena{}
	for i := 0; i < slabNodes; i++ { // warm one slab
		a.Scan(m, q, 0)
	}
	allocs := testing.AllocsPerRun(10, func() {
		a.Reset()
		for i := 0; i < slabNodes; i++ {
			a.Scan(m, q, 0)
		}
	})
	if allocs != 0 {
		t.Errorf("warm arena allocates %.1f times per %d nodes", allocs, slabNodes)
	}
}

// CloneTree must produce an equal tree sharing no nodes with the
// original — the copy stays valid after the arena recycles its slabs.
func TestCloneTreeEscapesArena(t *testing.T) {
	q := arenaQuery(t)
	m := cost.Default()
	a := &Arena{}

	l := a.Scan(m, q, 0)
	r := a.Scan(m, q, 1)
	join := a.Join(m, l, r, JoinSpec{Alg: cost.Hash, OutCard: 2000, Pred: NoPred, Order: query.NoOrder})
	// card = 2000 · 50 · sel(1,2) = 2000 · 50 · 0.5
	root := a.Join(m, join, a.Scan(m, q, 2), JoinSpec{Alg: cost.NestedLoop, OutCard: 50000, Pred: NoPred, Order: query.NoOrder})

	clone := CloneTree(root)
	want := root.String()
	wantCost := root.Cost

	// Recycle the arena and scribble over every slab slot.
	a.Reset()
	for i := 0; i < 4*slabNodes; i++ {
		a.Scan(m, q, 0)
	}

	if clone.String() != want || clone.Cost != wantCost {
		t.Fatalf("clone changed after arena reuse: %s (cost %g), want %s (cost %g)",
			clone.String(), clone.Cost, want, wantCost)
	}
	if err := clone.Validate(q, m); err != nil {
		t.Fatalf("clone fails validation: %v", err)
	}
	if CloneTree(nil) != nil {
		t.Fatal("CloneTree(nil) != nil")
	}
}

// CloneTrees copies a whole plan set out of an arena in one allocation:
// equal trees, no node shared with the arena, and copies that survive
// the arena's reuse.
func TestCloneTreesIsOneSlab(t *testing.T) {
	q := arenaQuery(t)
	m := cost.Default()
	a := &Arena{}
	spec := JoinSpec{Alg: cost.Hash, OutCard: 2000, Pred: NoPred, Order: query.NoOrder}
	ab := a.Join(m, a.Scan(m, q, 0), a.Scan(m, q, 1), spec)
	spec.OutCard = 50000
	roots := []*Node{
		a.Join(m, ab, a.Scan(m, q, 2), spec),
		a.Join(m, a.Scan(m, q, 2), ab, spec),
	}
	want := []string{roots[0].String(), roots[1].String()}

	clones := append([]*Node(nil), roots...)
	CloneTrees(clones)
	a.Reset()
	for i := 0; i < 4*slabNodes; i++ {
		a.Scan(m, q, 0)
	}
	for i, c := range clones {
		if c.String() != want[i] {
			t.Fatalf("clone %d changed after arena reuse: %s, want %s", i, c, want[i])
		}
		if err := c.Validate(q, m); err != nil {
			t.Fatalf("clone %d fails validation: %v", i, err)
		}
	}
	if clones[0].Left == clones[1].Right {
		t.Fatal("the clones share the subtree their originals shared")
	}
	allocs := testing.AllocsPerRun(50, func() {
		copy(clones, roots)
		CloneTrees(clones)
	})
	if allocs != 1 {
		t.Fatalf("CloneTrees of %d plans allocates %.1f objects, want 1", len(roots), allocs)
	}
}
