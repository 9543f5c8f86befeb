package query

import (
	"math"
	"math/rand"
	"testing"

	"mpq/internal/bitset"
)

func tables(cards ...float64) []Table {
	ts := make([]Table, len(cards))
	for i, c := range cards {
		ts[i] = Table{Name: "T", Cardinality: c}
	}
	return ts
}

// chain4 builds T0 - T1 - T2 - T3 with selectivity 0.1 per edge.
func chain4(t *testing.T) *Query {
	t.Helper()
	q := MustNew(tables(100, 200, 300, 400))
	for i := 0; i < 3; i++ {
		q.MustAddPredicate(Predicate{Left: i, Right: i + 1, Selectivity: 0.1})
	}
	q.Freeze()
	return q
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil); err == nil {
		t.Error("empty table list accepted")
	}
	if _, err := New(tables(0)); err == nil {
		t.Error("zero cardinality accepted")
	}
	if _, err := New(tables(-3)); err == nil {
		t.Error("negative cardinality accepted")
	}
	if _, err := New(make([]Table, bitset.MaxTables+1)); err == nil {
		t.Error("oversized query accepted")
	}
	if _, err := New([]Table{{Cardinality: math.Inf(1)}}); err == nil {
		t.Error("infinite cardinality accepted")
	}
	if _, err := New(tables(5)); err != nil {
		t.Errorf("single-table query rejected: %v", err)
	}
}

func TestAddPredicateValidation(t *testing.T) {
	q := MustNew(tables(10, 20))
	bad := []Predicate{
		{Left: 0, Right: 0, Selectivity: 0.5},
		{Left: -1, Right: 1, Selectivity: 0.5},
		{Left: 0, Right: 2, Selectivity: 0.5},
		{Left: 0, Right: 1, Selectivity: 0},
		{Left: 0, Right: 1, Selectivity: 1.5},
		{Left: 0, Right: 1, Selectivity: 0.5, LeftAttr: 1 << 16},
	}
	for i, p := range bad {
		if err := q.AddPredicate(p); err == nil {
			t.Errorf("case %d: bad predicate %+v accepted", i, p)
		}
	}
	if err := q.AddPredicate(Predicate{Left: 0, Right: 1, Selectivity: 1}); err != nil {
		t.Errorf("valid predicate rejected: %v", err)
	}
	q.Freeze()
	if err := q.AddPredicate(Predicate{Left: 0, Right: 1, Selectivity: 0.5}); err == nil {
		t.Error("AddPredicate after Freeze accepted")
	}
}

func TestCardOf(t *testing.T) {
	q := chain4(t)
	got := q.CardOf(bitset.Of(0, 1))
	want := 100.0 * 200 * 0.1
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("CardOf({0,1}) = %g want %g", got, want)
	}
	// Disconnected set: cross product, no predicate applies.
	got = q.CardOf(bitset.Of(0, 2))
	if got != 100.0*300 {
		t.Fatalf("CardOf({0,2}) = %g want %g", got, 100.0*300)
	}
	// Full query: all three predicates apply.
	got = q.CardOf(q.All())
	want = 100.0 * 200 * 300 * 400 * 0.1 * 0.1 * 0.1
	if math.Abs(got-want)/want > 1e-12 {
		t.Fatalf("CardOf(all) = %g want %g", got, want)
	}
	if q.CardOf(bitset.Empty()) != 1 {
		t.Fatal("CardOf(empty) should be 1 (empty product)")
	}
}

func TestSelBetween(t *testing.T) {
	q := chain4(t)
	if got := q.SelBetween(bitset.Of(0), bitset.Of(1)); got != 0.1 {
		t.Fatalf("SelBetween(0;1) = %g", got)
	}
	if got := q.SelBetween(bitset.Of(0), bitset.Of(2)); got != 1 {
		t.Fatalf("SelBetween(0;2) = %g (cross product)", got)
	}
	// {0,2} vs {1,3}: predicates 0-1, 1-2, 2-3 all straddle.
	got := q.SelBetween(bitset.Of(0, 2), bitset.Of(1, 3))
	if math.Abs(got-0.001) > 1e-15 {
		t.Fatalf("SelBetween = %g want 0.001", got)
	}
}

// Property: CardOf(s) == CardOf(l) * CardOf(r) * SelBetween(l, r) for any
// bipartition — the incremental identity the DP relies on.
func TestCardOfSplitIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 100; trial++ {
		n := 2 + rng.Intn(8)
		ts := make([]Table, n)
		for i := range ts {
			ts[i] = Table{Cardinality: float64(1 + rng.Intn(1000))}
		}
		q := MustNew(ts)
		for e := 0; e < n; e++ {
			a, b := rng.Intn(n), rng.Intn(n)
			if a != b {
				q.MustAddPredicate(Predicate{Left: a, Right: b, Selectivity: rng.Float64()*0.9 + 0.05})
			}
		}
		q.Freeze()
		s := bitset.Set(rng.Uint64()) & q.All()
		if s.Count() < 2 {
			continue
		}
		// Random bipartition of s.
		var l bitset.Set
		s.ForEach(func(i int) {
			if rng.Intn(2) == 0 {
				l = l.Add(i)
			}
		})
		r := s.Minus(l)
		if l.IsEmpty() || r.IsEmpty() {
			continue
		}
		whole := q.CardOf(s)
		split := q.CardOf(l) * q.CardOf(r) * q.SelBetween(l, r)
		if math.Abs(whole-split) > 1e-6*math.Max(whole, split) {
			t.Fatalf("split identity broken: %g vs %g (s=%v l=%v)", whole, split, s, l)
		}
	}
}

func TestConnectingPreds(t *testing.T) {
	q := chain4(t)
	ps := q.ConnectingPreds(nil, bitset.Of(1), bitset.Of(0, 2))
	if len(ps) != 2 {
		t.Fatalf("ConnectingPreds = %v, want 2 entries", ps)
	}
	ps = q.ConnectingPreds(nil, bitset.Of(0), bitset.Of(3))
	if len(ps) != 0 {
		t.Fatalf("ConnectingPreds across gap = %v", ps)
	}
	// Reuse of dst slice.
	dst := make([]int, 0, 4)
	ps = q.ConnectingPreds(dst, bitset.Of(0, 1), bitset.Of(2, 3))
	if len(ps) != 1 || q.Preds[ps[0]].Left != 1 {
		t.Fatalf("ConnectingPreds = %v", ps)
	}
}

func TestConnected(t *testing.T) {
	q := chain4(t)
	if !q.Connected(q.All()) {
		t.Fatal("chain should be connected")
	}
	if q.Connected(bitset.Of(0, 2)) {
		t.Fatal("{0,2} should be disconnected in a chain")
	}
	if !q.Connected(bitset.Of(1)) {
		t.Fatal("singleton should be connected")
	}
	if !q.Connected(bitset.Empty()) {
		t.Fatal("empty set should be connected")
	}
}

func TestValidate(t *testing.T) {
	q := chain4(t)
	if err := q.Validate(); err != nil {
		t.Fatalf("valid query rejected: %v", err)
	}
	// Corrupt a predicate under the hood.
	q2 := MustNew(tables(1, 2))
	q2.Preds = append(q2.Preds, Predicate{Left: 0, Right: 0, Selectivity: 0.5})
	if err := q2.Validate(); err == nil {
		t.Fatal("self-join predicate passed Validate")
	}
	q3 := MustNew(tables(1, 2))
	q3.Preds = append(q3.Preds, Predicate{Left: 0, Right: 1, Selectivity: 2})
	if err := q3.Validate(); err == nil {
		t.Fatal("selectivity 2 passed Validate")
	}
}

func TestAttrID(t *testing.T) {
	if AttrID(0, 0) == AttrID(0, 1) || AttrID(1, 0) == AttrID(0, 1) {
		t.Fatal("AttrID collisions")
	}
	if AttrID(3, 7) != 3<<16|7 {
		t.Fatalf("AttrID(3,7) = %d", AttrID(3, 7))
	}
}

func TestString(t *testing.T) {
	q := chain4(t)
	if got := q.String(); got != "Query{4 tables, 3 predicates}" {
		t.Fatalf("String = %q", got)
	}
}

// The mask-based accessors must agree with the definitions they replaced
// — bit for bit where they return floats, element for element (order
// included: callers enumerate merge predicates in it) where they return
// predicate lists — on random graphs with parallel edges, isolated
// tables and arbitrary (also overlapping) set pairs.
func TestMaskAccessorsMatchDefinitions(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	in := func(s bitset.Set, t int) bool { return s&(1<<uint(t)) != 0 }
	for trial := 0; trial < 300; trial++ {
		n := 2 + rng.Intn(12)
		ts := make([]Table, n)
		for i := range ts {
			ts[i] = Table{Cardinality: float64(1 + rng.Intn(1000))}
		}
		q := MustNew(ts)
		for e, edges := 0, rng.Intn(2*n); e < edges; e++ {
			if a, b := rng.Intn(n), rng.Intn(n); a != b {
				q.MustAddPredicate(Predicate{Left: a, Right: b, Selectivity: rng.Float64()*0.95 + 0.05})
			}
		}
		a := bitset.Set(rng.Uint64()) & q.All()
		b := bitset.Set(rng.Uint64()) & q.All()
		// Random masks are almost never single tables, which the DP's
		// first split of a set almost always passes: one trial in three
		// makes a a single table and one makes b, disjoint or not alike.
		switch trial % 3 {
		case 1:
			a = bitset.Single(rng.Intn(n))
		case 2:
			b = bitset.Single(rng.Intn(n))
		}
		if trial%2 == 0 {
			b = b.Minus(a) // the DP's case: disjoint operands
		}
		band := 1 + 3*rng.Float64()

		sel, selHi := selDefinition(q, a, b, band)
		var nbr bitset.Set
		for _, p := range q.Preds {
			if in(a, p.Left) {
				nbr = nbr.Add(p.Right)
			}
			if in(a, p.Right) {
				nbr = nbr.Add(p.Left)
			}
		}
		if got := q.SelBetween(a, b); got != sel {
			t.Fatalf("SelBetween(%v, %v) = %b, definition gives %b", a, b, got, sel)
		}
		if got := q.SelBetweenInflated(a, b, band); got != selHi {
			t.Fatalf("SelBetweenInflated(%v, %v, %g) = %b, definition gives %b", a, b, band, got, selHi)
		}
		if got := q.Neighbors(a); got != nbr {
			t.Fatalf("Neighbors(%v) = %v, want %v", a, got, nbr)
		}

		// ConnectingPreds: adjacency lists of the smaller side (a on a
		// tie), tables ascending, predicates in index order per table.
		small, big := a, b
		if small.Count() > big.Count() {
			small, big = big, small
		}
		var want []int
		small.ForEach(func(tb int) {
			for pi, p := range q.Preds {
				other := -1
				if p.Left == tb {
					other = p.Right
				} else if p.Right == tb {
					other = p.Left
				}
				if other >= 0 && in(big, other) && !in(small, other) {
					want = append(want, pi)
				}
			}
		})
		got := q.ConnectingPreds(nil, a, b)
		if len(got) != len(want) {
			t.Fatalf("ConnectingPreds(%v, %v) = %v, want %v", a, b, got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("ConnectingPreds(%v, %v) = %v, want %v", a, b, got, want)
			}
		}

		// Connected: reachability from the smallest member within a.
		reach := bitset.Empty()
		if !a.IsEmpty() {
			reach = bitset.Single(a.Min())
			for changed := true; changed; {
				changed = false
				for _, p := range q.Preds {
					if in(a, p.Left) && in(a, p.Right) && in(reach, p.Left) != in(reach, p.Right) {
						reach = reach.Add(p.Left).Add(p.Right)
						changed = true
					}
				}
			}
		}
		if got := q.Connected(a); got != (reach == a) {
			t.Fatalf("Connected(%v) = %v, reachable set is %v", a, got, reach)
		}
	}
}

// selDefinition is SelBetween and SelBetweenInflated by their
// definition: the product, in predicate index order, over the
// predicates with one endpoint in a and the other in b.
func selDefinition(q *Query, a, b bitset.Set, band float64) (sel, selHi float64) {
	in := func(s bitset.Set, t int) bool { return s&(1<<uint(t)) != 0 }
	sel, selHi = 1, 1
	for _, p := range q.Preds {
		if (in(a, p.Left) && in(b, p.Right)) || (in(a, p.Right) && in(b, p.Left)) {
			sel *= p.Selectivity
			selHi *= math.Min(1, p.Selectivity*band)
		}
	}
	return sel, selHi
}

// FuzzSelBetween checks SelBetween and SelBetweenInflated bit for bit
// against their definition, for any operands over a generated query:
// a single table on either side or both (shape 1, 2, 3 turn a, b or
// both into the table a or b names), overlapping and empty sets. The
// query has up to 63 tables and parallel predicates, so a table's
// predicates are many and their order matters to the product.
func FuzzSelBetween(f *testing.F) {
	f.Add(int64(1), uint8(8), uint64(0b1110), uint64(0b1), uint8(0), uint8(32))
	f.Add(int64(2), uint8(12), uint64(3), uint64(0b111100), uint8(1), uint8(0))
	f.Add(int64(3), uint8(12), uint64(0b111100), uint64(5), uint8(2), uint8(200))
	f.Add(int64(4), uint8(63), uint64(7), uint64(9), uint8(3), uint8(64))
	f.Add(int64(5), uint8(16), uint64(0xffff), uint64(0x0f0f), uint8(0), uint8(64)) // overlapping
	f.Add(int64(6), uint8(16), uint64(4), uint64(0xffff), uint8(1), uint8(16))      // b holds a's table
	f.Add(int64(7), uint8(16), uint64(0), uint64(0xffff), uint8(0), uint8(16))      // empty a
	f.Add(int64(8), uint8(2), uint64(1), uint64(0), uint8(0), uint8(16))            // empty b
	f.Fuzz(func(t *testing.T, seed int64, size uint8, a, b uint64, shape, bandByte uint8) {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + int(size)%bitset.MaxTables
		ts := make([]Table, n)
		for i := range ts {
			ts[i].Cardinality = 1
		}
		q := MustNew(ts)
		for e, edges := 0, rng.Intn(3*n+1); e < edges; e++ {
			if l, r := rng.Intn(n), rng.Intn(n); l != r {
				q.MustAddPredicate(Predicate{Left: l, Right: r, Selectivity: 1 - rng.Float64()})
			}
		}
		sa, sb := bitset.Set(a)&q.All(), bitset.Set(b)&q.All()
		if shape&1 != 0 {
			sa = bitset.Single(int(a % uint64(n)))
		}
		if shape&2 != 0 {
			sb = bitset.Single(int(b % uint64(n)))
		}
		band := 1 + float64(bandByte)/64
		sel, selHi := selDefinition(q, sa, sb, band)
		if got := q.SelBetween(sa, sb); math.Float64bits(got) != math.Float64bits(sel) {
			t.Fatalf("SelBetween(%v, %v) = %b, definition gives %b", sa, sb, got, sel)
		}
		if got := q.SelBetweenInflated(sa, sb, band); math.Float64bits(got) != math.Float64bits(selHi) {
			t.Fatalf("SelBetweenInflated(%v, %v, %g) = %b, definition gives %b", sa, sb, band, got, selHi)
		}
	})
}

// The DP asks SelBetween once per table set, and workload checks ask
// Connected of many sets: neither may allocate.
func TestSetAccessorsAllocFree(t *testing.T) {
	q := chain4(t)
	var sink bool
	var fsink float64
	if allocs := testing.AllocsPerRun(100, func() {
		sink = q.Connected(q.All())
		fsink = q.SelBetween(bitset.Of(0, 2), bitset.Of(1, 3))
	}); allocs != 0 {
		t.Fatalf("Connected + SelBetween allocate %.1f times per call", allocs)
	}
	_, _ = sink, fsink
}
