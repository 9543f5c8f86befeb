package partition

import (
	"slices"
	"testing"

	"mpq/internal/bitset"
)

// forEveryPartition calls fn for every space × 1 ≤ n ≤ maxN × every
// legal worker count × every partition ID.
func forEveryPartition(t *testing.T, maxN int, fn func(cs *ConstraintSet)) {
	t.Helper()
	for _, space := range []Space{Linear, Bushy} {
		for n := 1; n <= maxN; n++ {
			for m := 1; m <= MaxWorkers(space, n); m *= 2 {
				for partID := 0; partID < m; partID++ {
					cs, err := ForPartition(space, n, partID, m)
					if err != nil {
						t.Fatal(err)
					}
					fn(cs)
				}
			}
		}
	}
}

// bruteRank is Index.Of from first principles: the number of admissible
// sets that come before s when sets are compared group by group —
// constrained groups first, group 0 most significant, each by its bits'
// value; then the free tables as one number.
func bruteRank(cs *ConstraintSet, s bitset.Set) int {
	g := cs.Space.groupSize()
	key := func(v bitset.Set) []uint64 {
		var k []uint64
		for i := range cs.List {
			k = append(k, uint64(v>>uint(g*i))&(1<<uint(g)-1))
		}
		return append(k, uint64(v>>uint(g*len(cs.List))))
	}
	want := key(s)
	rank := 0
	bitset.Range(cs.N).Subsets(func(v bitset.Set) {
		// Singletons are admissible by decree, not by the constraints;
		// they take no part in the index.
		for _, c := range cs.List {
			if violates(cs.Space, c, v) {
				return
			}
		}
		for i, k := range key(v) {
			if k != want[i] {
				if k < want[i] {
					rank++
				}
				return
			}
		}
	})
	return rank
}

// The index is a bijection from the enumerated admissible sets onto a
// range with no slack, in the enumeration's own order: what lets the
// dynamic program's memo be an array that is written front to back. The
// rank the enumerator hands over with each set is that slot, and so are
// the ranks of its operands (checkOperandRanks).
func TestIndexIsPerfectAndFollowsTheEnumeration(t *testing.T) {
	forEveryPartition(t, 10, func(cs *ConstraintSet) {
		ix := cs.Index()
		slots := cs.CountAdmissible()
		enumerated := uint64(0)
		seen := make([]bool, slots)
		en := cs.NewEnumerator()
		for k := 0; k <= cs.N; k++ {
			prev := -1
			en.ForEachRanked(k, func(u bitset.Set, i int) bool {
				enumerated++
				if i != ix.Of(u) {
					t.Fatalf("%v n=%d %s: %v ranked %d, Of %d", cs.Space, cs.N, cs.Describe(), u, i, ix.Of(u))
				}
				if i < 0 || uint64(i) >= slots {
					t.Fatalf("%v n=%d %s: Of(%v) = %d outside [0,%d)", cs.Space, cs.N, cs.Describe(), u, i, slots)
				}
				if seen[i] {
					t.Fatalf("%v n=%d %s: slot %d of %v already taken", cs.Space, cs.N, cs.Describe(), i, u)
				}
				seen[i] = true
				if i <= prev {
					t.Fatalf("%v n=%d %s: Of(%v) = %d after %d: not rising along ForEachAdmissible(%d)",
						cs.Space, cs.N, cs.Describe(), u, i, prev, k)
				}
				prev = i
				if cs.N <= 7 && i != bruteRank(cs, u) {
					t.Fatalf("%v n=%d %s: Of(%v) = %d, brute-force rank %d", cs.Space, cs.N, cs.Describe(), u, i, bruteRank(cs, u))
				}
				if k >= 2 {
					checkOperandRanks(t, cs, u)
				}
				return true
			})
		}
		// No slack: every slot belongs to an enumerated set (the empty set
		// and the singletons the constraints admit included).
		if enumerated != slots {
			t.Fatalf("%v n=%d %s: %d sets enumerated, CountAdmissible %d", cs.Space, cs.N, cs.Describe(), enumerated, slots)
		}
	})
}

// checkOperandRanks checks the slots the partition layer hands the
// dynamic program with the operands of u, an admissible join result of
// two or more tables. Linear: Of(u) − Step(t) is the slot of the outer
// operand u∖{t} of every inner table t that InnerAllowed admits, unless
// that operand is a singleton. Bushy: ForEachSplit yields filteredLefts'
// operands in filteredLefts' order, each with the slots of both sides.
func checkOperandRanks(t *testing.T, cs *ConstraintSet, u bitset.Set) {
	t.Helper()
	ix := cs.Index()
	if cs.Space == Linear {
		u.ForEach(func(tbl int) {
			outer := u.Remove(tbl)
			if !outer.IsSingleton() && cs.InnerAllowed(u, tbl) && ix.Of(u)-ix.Step(tbl) != ix.Of(outer) {
				t.Fatalf("n=%d %s: Of(%v) − Step(%d) = %d, Of(%v) = %d", cs.N, cs.Describe(), u, tbl, ix.Of(u)-ix.Step(tbl), outer, ix.Of(outer))
			}
		})
		return
	}
	var lefts []bitset.Set
	cs.NewSplitter().ForEachSplit(u, func(left bitset.Set, lrank, rrank int) {
		if right := u.Minus(left); lrank != ix.Of(left) || rrank != ix.Of(right) {
			t.Fatalf("n=%d %s: split %v | %v of %v ranked %d | %d, Of gives %d | %d",
				cs.N, cs.Describe(), left, right, u, lrank, rrank, ix.Of(left), ix.Of(right))
		}
		lefts = append(lefts, left)
	})
	if want := filteredLefts(cs, u); !slices.Equal(lefts, want) {
		t.Fatalf("n=%d %s: ForEachSplit(%v) yields %v, want %v", cs.N, cs.Describe(), u, lefts, want)
	}
}

// filteredLefts is the bushy splitter without ranks or division tables:
// each constrained triple's part of u split every way that violates the
// constraint on neither side, the triples crossed in constraint order
// with the free tables' subsets innermost, all ascending. ForEachSplit
// must keep this order, as the dynamic program keeps the first of
// equally cheap plans.
func filteredLefts(cs *ConstraintSet, u bitset.Set) []bitset.Set {
	var parts [][]bitset.Set
	for ci, c := range cs.List {
		s := cs.groupMask[ci].Intersect(u)
		if s.IsEmpty() {
			continue
		}
		var subs []bitset.Set
		s.Subsets(func(sub bitset.Set) {
			if !violates(cs.Space, c, sub) && !violates(cs.Space, c, s.Minus(sub)) {
				subs = append(subs, sub)
			}
		})
		parts = append(parts, subs)
	}
	free := u.Minus(cs.constrainedTables)
	var lefts []bitset.Set
	var rec func(pi int, acc bitset.Set)
	rec = func(pi int, acc bitset.Set) {
		if pi == len(parts) {
			free.Subsets(func(fs bitset.Set) {
				if left := acc.Union(fs); !left.IsEmpty() && left != u {
					lefts = append(lefts, left)
				}
			})
			return
		}
		for _, sub := range parts[pi] {
			rec(pi+1, acc.Union(sub))
		}
	}
	rec(0, bitset.Empty())
	return lefts
}

// What lets a linear dynamic program keep singletons outside the indexed
// memo: the outer operand u∖{t} of every split Algorithm 5 allows is an
// admissible set with a slot of its own, or a singleton.
func TestLinearOuterOperandIsAdmissibleOrSingleton(t *testing.T) {
	forEveryPartition(t, 10, func(cs *ConstraintSet) {
		if cs.Space != Linear {
			return
		}
		for _, bucket := range cs.AdmissibleSets()[2:] {
			for _, u := range bucket {
				inners := 0
				u.ForEach(func(tbl int) {
					if !cs.InnerAllowed(u, tbl) {
						return
					}
					inners++
					outer := u.Remove(tbl)
					if outer.IsSingleton() {
						return
					}
					for _, c := range cs.List {
						if violates(Linear, c, outer) {
							t.Fatalf("n=%d %s: %v minus allowed inner %d violates %v", cs.N, cs.Describe(), u, tbl, c)
						}
					}
				})
				if inners == 0 {
					t.Fatalf("n=%d %s: admissible %v has no allowed inner table", cs.N, cs.Describe(), u)
				}
			}
		}
	})
}

// A 256-worker partition must not build a table over all its 16
// constrained bits: lookup tables grow by the chunk.
func TestIndexTablesGrowLinearly(t *testing.T) {
	for _, c := range []struct {
		space Space
		n, m  int
	}{{Linear, 16, 256}, {Linear, 62, MaxWorkers(Linear, 62)}, {Bushy, 63, 1 << 21}} {
		cs, err := ForPartition(c.space, c.n, c.m-1, c.m)
		if err != nil {
			t.Fatal(err)
		}
		if got, limit := len(cs.Index().tab), len(cs.List)<<indexChunkBits; got > limit {
			t.Errorf("%v n=%d m=%d: %d table entries for %d groups", c.space, c.n, c.m, got, len(cs.List))
		}
	}
}

// FuzzIndex: for any partition and any table set, Of stays inside the
// array, and on an admissible set it is the brute-force rank, the rank
// the enumerator hands over with the set, and its operands' ranks are
// their slots (checkOperandRanks).
func FuzzIndex(f *testing.F) {
	f.Add(uint8(0), uint8(6), uint8(3), uint16(5), uint16(0b110111))
	f.Add(uint8(1), uint8(9), uint8(3), uint16(7), uint16(0b101101101))
	f.Add(uint8(0), uint8(10), uint8(0), uint16(0), uint16(0b1000000010))
	f.Add(uint8(1), uint8(7), uint8(1), uint16(1), uint16(0b0000110))
	f.Add(uint8(0), uint8(1), uint8(0), uint16(0), uint16(1))
	f.Add(uint8(1), uint8(8), uint8(1), uint16(1), uint16(0b11010111))
	f.Fuzz(func(t *testing.T, space, n, logM uint8, partID, setBits uint16) {
		sp := Space(space % 2)
		tables := 1 + int(n)%10
		m := 1 << (int(logM) % 6)
		if m > MaxWorkers(sp, tables) {
			m = MaxWorkers(sp, tables)
		}
		cs, err := ForPartition(sp, tables, int(partID)%m, m)
		if err != nil {
			t.Fatal(err)
		}
		s := bitset.Set(setBits) & bitset.Range(tables)
		i := cs.Index().Of(s)
		if i < 0 || uint64(i) >= cs.CountAdmissible() {
			t.Fatalf("%v n=%d %s: Of(%v) = %d outside [0,%d)", sp, tables, cs.Describe(), s, i, cs.CountAdmissible())
		}
		if s.Count() < 2 || !cs.Admissible(s) {
			return
		}
		if i != bruteRank(cs, s) {
			t.Fatalf("%v n=%d %s: Of(%v) = %d, brute-force rank %d", sp, tables, cs.Describe(), s, i, bruteRank(cs, s))
		}
		cs.NewEnumerator().ForEachRanked(s.Count(), func(u bitset.Set, rank int) bool {
			if u == s && rank != i {
				t.Fatalf("%v n=%d %s: %v ranked %d, Of %d", sp, tables, cs.Describe(), s, rank, i)
			}
			return u != s
		})
		checkOperandRanks(t, cs, s)
	})
}
