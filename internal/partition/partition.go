// Package partition implements the paper's plan-space partitioning
// (§4.2, Algorithms 3–5): translating a partition ID into join-order
// constraints, deriving the admissible join results for a partition, and
// enumerating the admissible operand splits of a join result.
//
// Linear (left-deep) plan spaces are restricted by precedence constraints
// x ≺ y on disjoint consecutive table pairs: x must appear before y in
// the join order, so intermediate results containing y but not x are
// inadmissible. Bushy plan spaces are restricted by constraints
// x ⪯ y|z on disjoint consecutive table triples: among intermediate
// results containing z, y must not appear before x, so results containing
// y and z but not x are inadmissible.
//
// Every worker derives its constraint set deterministically from
// (partition ID, worker count); the union of all partitions' admissible
// plans is exactly the unconstrained plan space.
//
// A partition's admissible join results are a product of per-group
// admissible subsets (Algorithm 4), which the package reads three ways:
// CountAdmissible is its size (the closed forms of Theorems 2 and 3),
// Enumerator streams its elements cardinality by cardinality, and Index
// ranks them — a perfect index into [0, CountAdmissible) that rises
// along the Enumerator's order, so the dynamic program's memo can be a
// plain array. A rank is a sum of one share per group, so it travels
// with the sets: the Enumerator hands each set over with its rank, the
// Splitter each bushy split with its two operands' ranks, and
// Index.Step turns a linear set's rank into its outer operand's.
package partition

import (
	"fmt"
	"math/bits"
	"strings"

	"mpq/internal/bitset"
)

// Space identifies which plan space is being partitioned.
type Space int

const (
	// Linear is the space of left-deep plans (§3).
	Linear Space = iota
	// Bushy is the space of arbitrary binary join trees.
	Bushy
)

// String names the space as in the paper's figures ("Linear", "Bushy").
func (s Space) String() string {
	switch s {
	case Linear:
		return "Linear"
	case Bushy:
		return "Bushy"
	default:
		return fmt.Sprintf("Space(%d)", int(s))
	}
}

// ParseSpace converts a space name to a Space, ignoring case; the empty
// string means Linear. It is the one spelling of the -space flag and
// the HTTP API's "space" field.
func ParseSpace(name string) (Space, error) {
	switch strings.ToLower(name) {
	case "", "linear":
		return Linear, nil
	case "bushy":
		return Bushy, nil
	default:
		return 0, fmt.Errorf("unknown plan space %q (want linear or bushy)", name)
	}
}

// Valid reports whether s names a real space.
func (s Space) Valid() bool { return s == Linear || s == Bushy }

// groupSize returns the number of tables per constrained group: pairs for
// the linear space, triples for the bushy space.
func (s Space) groupSize() int {
	if s == Linear {
		return 2
	}
	return 3
}

// Constraint is one join-order constraint.
//
// Linear space: X ≺ Y (Z is -1) — table X must be joined before table Y;
// join results containing Y but not X are inadmissible.
//
// Bushy space: X ⪯ Y|Z — following table Z's path to the plan root,
// X appears no later than Y; join results containing Y and Z but not X
// are inadmissible.
type Constraint struct {
	X, Y, Z int
}

// String renders the constraint in the paper's notation.
func (c Constraint) String() string {
	if c.Z < 0 {
		return fmt.Sprintf("Q%d ≺ Q%d", c.X, c.Y)
	}
	return fmt.Sprintf("Q%d ⪯ Q%d|Q%d", c.X, c.Y, c.Z)
}

// MaxWorkers returns the maximal number of workers (partitions) the
// paper's scheme supports for a query of n tables: 2^⌊n/2⌋ for linear
// and 2^⌊n/3⌋ for bushy plan spaces (§5). The result is capped at
// 2^(bits.UintSize−2) to stay in int range on 32-bit targets too.
func MaxWorkers(space Space, n int) int {
	g := space.groupSize()
	exp := min(n/g, bits.UintSize-2)
	return 1 << uint(exp)
}

// NumConstraints returns l = log2(m) and validates that m is a power of
// two (the paper assumes the worker count is a power of two; otherwise
// only a power-of-two subset of workers can be used).
func NumConstraints(m int) (int, error) {
	if m < 1 {
		return 0, fmt.Errorf("partition: worker count %d < 1", m)
	}
	if m&(m-1) != 0 {
		return 0, fmt.Errorf("partition: worker count %d is not a power of two", m)
	}
	return bits.TrailingZeros64(uint64(m)), nil
}

// ConstraintSet is the decoded form of one plan-space partition: the
// constraints plus indexes for fast admissibility checks. Build it with
// ForPartition. A ConstraintSet with no constraints (m = 1) represents
// the full, unpartitioned plan space.
type ConstraintSet struct {
	Space Space
	N     int // number of query tables
	List  []Constraint

	// laterTable[t] = v if a linear constraint t ≺ v exists, else -1.
	// Disjoint pairs guarantee at most one such v per table.
	laterTable []int

	// constrainedTables is the union of all tables mentioned by
	// constraints; groupOf[i] indexes List for the constraint whose
	// group contains table i (-1 if none).
	constrainedTables bitset.Set
	groupMask         []bitset.Set // per constraint: the pair/triple mask

	index Index
}

// ForPartition translates partition ID partID (0-based, 0 ≤ partID < m)
// into the constraint set defining that partition of the plan space for
// an n-table query (Algorithm 3). Bit i of partID selects the direction
// of the constraint on the i-th disjoint table pair (linear) or triple
// (bushy).
func ForPartition(space Space, n, partID, m int) (*ConstraintSet, error) {
	if !space.Valid() {
		return nil, fmt.Errorf("partition: invalid space %d", int(space))
	}
	if n < 1 || n > bitset.MaxTables {
		return nil, fmt.Errorf("partition: table count %d out of range", n)
	}
	l, err := NumConstraints(m)
	if err != nil {
		return nil, err
	}
	if partID < 0 || partID >= m {
		return nil, fmt.Errorf("partition: partition ID %d outside [0,%d)", partID, m)
	}
	if max := MaxWorkers(space, n); m > max {
		return nil, fmt.Errorf("partition: %d workers exceed maximum %d for %v space with %d tables", m, max, space, n)
	}
	g := space.groupSize()
	cs := &ConstraintSet{Space: space, N: n, laterTable: make([]int, n)}
	for i := range cs.laterTable {
		cs.laterTable[i] = -1
	}
	for i := 0; i < l; i++ {
		precOrd := (partID >> uint(i)) & 1
		var c Constraint
		if space == Linear {
			x, y := g*i, g*i+1
			if precOrd == 0 {
				c = Constraint{X: x, Y: y, Z: -1}
			} else {
				c = Constraint{X: y, Y: x, Z: -1}
			}
			cs.laterTable[c.X] = c.Y
		} else {
			x, y, z := g*i, g*i+1, g*i+2
			if precOrd == 0 {
				c = Constraint{X: x, Y: y, Z: z}
			} else {
				c = Constraint{X: y, Y: x, Z: z}
			}
		}
		cs.List = append(cs.List, c)
		mask := bitset.Single(c.X).Add(c.Y)
		if c.Z >= 0 {
			mask = mask.Add(c.Z)
		}
		cs.groupMask = append(cs.groupMask, mask)
		cs.constrainedTables = cs.constrainedTables.Union(mask)
	}
	cs.buildIndex()
	return cs, nil
}

// Unconstrained returns the constraint set of the full plan space
// (equivalent to ForPartition(space, n, 0, 1)).
func Unconstrained(space Space, n int) *ConstraintSet {
	cs, err := ForPartition(space, n, 0, 1)
	if err != nil {
		panic(err)
	}
	return cs
}

// violates reports whether join result s violates constraint c.
func violates(space Space, c Constraint, s bitset.Set) bool {
	if space == Linear {
		return s.Contains(c.Y) && !s.Contains(c.X)
	}
	return s.Contains(c.Y) && s.Contains(c.Z) && !s.Contains(c.X)
}

// Admissible reports whether join result s may appear in a plan of this
// partition. Singleton sets are always admissible: scan plans are needed
// by every partition (§4.2 notes singletons are treated separately).
func (cs *ConstraintSet) Admissible(s bitset.Set) bool {
	if s.Count() <= 1 {
		return true
	}
	for _, c := range cs.List {
		if violates(cs.Space, c, s) {
			return false
		}
	}
	return true
}

// InnerAllowed reports, for the linear space, whether table t may be the
// inner (last-joined) operand of join result u: it is forbidden iff a
// constraint t ≺ v exists with v ∈ u (Algorithm 5, line 7).
func (cs *ConstraintSet) InnerAllowed(u bitset.Set, t int) bool {
	v := cs.laterTable[t]
	return v < 0 || !u.Contains(v)
}

// ranked is an admissible subset of one table group with its share of
// Index.Of: Of of a set is the sum of its groups' shares.
type ranked struct {
	set  bitset.Set
	rank int
}

// groups returns, for every disjoint table group (constrained pairs or
// triples, then the unconstrained remainder as singleton groups), the
// admissible subsets of that group (Algorithm 4's ConstrainedPowerSet)
// with their rank shares, all in one backing array.
func (cs *ConstraintSet) groups() [][]ranked {
	g, shift := cs.Space.groupSize(), int(cs.index.shift)
	all := make([]ranked, 0, len(cs.List)<<g+2*(cs.N-shift))
	out := make([][]ranked, 0, len(cs.List)+cs.N-shift)
	for ci, c := range cs.List {
		start := len(all)
		cs.groupMask[ci].Subsets(func(sub bitset.Set) {
			if !violates(cs.Space, c, sub) {
				all = append(all, ranked{sub, cs.index.Of(sub)})
			}
		})
		out = append(out, all[start:])
	}
	// Unconstrained groups: the tables from shift up carry no constraint,
	// so each contributes {∅, {t}} independently; we group them per-table
	// for a flatter product tree. Highest table outermost: with every
	// group's subsets in ascending mask order that makes the Enumerator
	// visit sets in ascending Index order.
	for t := cs.N - 1; t >= shift; t-- {
		all = append(all, ranked{}, ranked{bitset.Single(t), 1 << (t - shift)})
		out = append(out, all[len(all)-2:])
	}
	return out
}

// Enumerator streams the admissible join results of one partition,
// cardinality by cardinality, without ever materializing the full
// ~4^(n/2) (linear) or ~8^(n/3) (bushy) admissible-set list — the
// O(per-partition) memory the paper's Theorem 4 assumes. It drives the
// same group-product recursion as Algorithm 4 (admissible subsets of
// each disjoint constrained group, crossed with the free tables) with
// cardinality bounds pruning branches that cannot reach the requested
// set size, so every visited branch yields at least one output.
//
// Build one Enumerator per DP run and reuse it across cardinalities, as
// dp's Engine.Level does with ForEachClaimed:
//
//	en := cs.NewEnumerator()
//	for k := 2; k <= cs.N; k++ {
//		en.ForEachRanked(k, func(u bitset.Set, rank int) bool {
//			process(u, rank) // rank = Index.Of(u), u's memo slot
//			return true
//		})
//	}
type Enumerator struct {
	groups [][]ranked
	// maxTail[i] is the largest table count groups[i:] can contribute;
	// a partial product with cnt tables is pruned when cnt+maxTail < k.
	maxTail []int
	// depth is the group a task of ForEachClaimed starts at: taskDepth,
	// or the group count if that is smaller.
	depth int
}

// taskDepth is how many of the outermost groups choose a task of
// ForEachClaimed: with no constraints, the four highest tables, so an
// unconstrained level is cut into at most 16 tasks.
const taskDepth = 4

// NewEnumerator returns a streaming enumerator for this partition's
// admissible join results. The enumerator is read-only after
// construction: it may be reused, and walked by several goroutines at
// once.
func (cs *ConstraintSet) NewEnumerator() *Enumerator {
	groups := cs.groups()
	maxTail := make([]int, len(groups)+1)
	for i := len(groups) - 1; i >= 0; i-- {
		max := 0
		for _, sub := range groups[i] {
			if c := sub.set.Count(); c > max {
				max = c
			}
		}
		maxTail[i] = maxTail[i+1] + max
	}
	return &Enumerator{groups: groups, maxTail: maxTail, depth: min(taskDepth, len(groups))}
}

// ForEachRanked calls fn for every admissible join result u with
// exactly k tables and its slot rank = Index.Of(u), in the same
// deterministic order in which AdmissibleSets fills its k-th bucket —
// rank rises along it. It is ForEachClaimed with one caller taking
// every task. fn returns whether enumeration should continue;
// ForEachRanked reports whether it ran to completion (false iff fn
// stopped it).
func (en *Enumerator) ForEachRanked(k int, fn func(u bitset.Set, rank int) bool) bool {
	return en.ForEachClaimed(k, nil, fn)
}

// ForEachClaimed is ForEachRanked over the tasks its caller claims, so
// that several callers can share one level. A task is one choice of
// subsets of the outermost taskDepth groups: a contiguous run of ranks.
// Tasks are numbered from 0 in enumeration order. The walk calls claim
// on reaching its first task and the first task after each one it
// claimed; claim returns the index of the next task the caller takes,
// at least the one the walk stands at — the next value of a counter the
// callers share is one — and the walk skips the tasks in between; an
// index past the last task ends the caller's share. A nil claim takes
// every task. The rank is the sum of the shares of u's group
// subsets, added up along the recursion that builds u.
func (en *Enumerator) ForEachClaimed(k int, claim func() int, fn func(u bitset.Set, rank int) bool) bool {
	w := walk{en: en, k: k, claim: claim, fn: fn}
	return w.rec(0, 0, 0, 0)
}

// walk is one ForEachClaimed call: a struct, not closures, so that the
// call inlines and the recursion's frames, one per group on every set's
// call chain, stay small (docs/perf.md §15). task counts the tasks passed,
// and mine is one more than the last task claimed.
type walk struct {
	en         *Enumerator
	k          int
	task, mine int
	claim      func() int
	fn         func(u bitset.Set, rank int) bool
}

// rec extends acc, a partial set of cnt tables whose rank shares sum to
// rank, by the subsets of groups[gi:]. The last group's sets go to fn
// from its loop, without one more frame.
func (w *walk) rec(gi int, acc bitset.Set, rank, cnt int) bool {
	en := w.en
	if cnt+en.maxTail[gi] < w.k {
		return true // this branch cannot reach k tables
	}
	if gi == en.depth && !w.owns() {
		return true
	}
	for _, sub := range en.groups[gi] {
		c := cnt + sub.set.Count()
		switch {
		case c > w.k:
		case gi+1 < len(en.groups):
			if !w.rec(gi+1, acc.Union(sub.set), rank+sub.rank, c) {
				return false
			}
		case c == w.k && (gi+1 != en.depth || w.owns()):
			if !w.fn(acc.Union(sub.set), rank+sub.rank) {
				return false
			}
		}
	}
	return true
}

// owns moves the walk past one task and reports whether the caller takes
// it: always, with no claim.
func (w *walk) owns() bool {
	if w.claim == nil {
		return true
	}
	if w.mine <= w.task {
		w.mine = w.claim() + 1
	}
	w.task++
	return w.task == w.mine
}

// ForEachAdmissible is ForEachRanked without the ranks.
func (en *Enumerator) ForEachAdmissible(k int, fn func(u bitset.Set) bool) bool {
	return en.ForEachRanked(k, func(u bitset.Set, _ int) bool { return fn(u) })
}

// ForEachAdmissible streams the admissible join results with exactly k
// tables; see Enumerator.ForEachAdmissible. Callers iterating several
// cardinalities should build one Enumerator with NewEnumerator and reuse
// it instead.
func (cs *ConstraintSet) ForEachAdmissible(k int, fn func(u bitset.Set) bool) bool {
	return cs.NewEnumerator().ForEachAdmissible(k, fn)
}

// AdmissibleSets enumerates every admissible join result of the partition
// (Algorithm 4), bucketed by cardinality: the k-th slice holds all
// admissible table sets with exactly k tables. Bucket 0 holds the empty
// set and bucket 1 all singletons that survive the constraints.
//
// This eagerly materializes the whole admissible-set list and is kept
// for tests, tools and ablations; the DP streams the same sets per
// cardinality through Enumerator instead, in dp's Engine.Level, which
// the SMA baseline drives too.
func (cs *ConstraintSet) AdmissibleSets() [][]bitset.Set {
	byCard := make([][]bitset.Set, cs.N+1)
	en := cs.NewEnumerator()
	for k := 0; k <= cs.N; k++ {
		en.ForEachAdmissible(k, func(u bitset.Set) bool {
			byCard[k] = append(byCard[k], u)
			return true
		})
	}
	return byCard
}

// CountAdmissible returns the exact number of admissible join results in
// closed form: 4^(p-l)·3^l·2^r for linear (p pairs, r leftover tables)
// and 8^(t-l)·7^l·2^r for bushy (t triples) — the finite-n counterparts
// of Theorems 2 and 3. It is the slot count of the partition's Index.
func (cs *ConstraintSet) CountAdmissible() uint64 { return cs.index.slots }

// Index is the perfect index of one partition's admissible join results:
// Algorithm 4's product of per-group admissible subsets read as a
// mixed-radix number. Of maps the admissible sets one-to-one onto
// [0, CountAdmissible), so an array indexed by it is a memo with no
// hashing, no keys and no empty slots.
//
// The digits of Of(s), most significant first, are the ordinals of s's
// part in each constrained group among the group's admissible subsets
// in ascending mask order — base 3 per pair x ≺ y (∅, {x}, {x,y}),
// base 7 per triple x ⪯ y|z (all subsets but {y,z}), group 0 first —
// then one bit per unconstrained table, highest table first; with no
// constraints Of(s) is s itself. That is the nesting of the Enumerator's
// loops, so Of rises strictly along ForEachAdmissible(k) for every k: a
// dynamic program that treats sets in that order writes its array front
// to back, and the operands it reads walk forward too.
//
// An inadmissible set lands on the slot of some admissible one. The
// linear singleton {y} of a pair x ≺ y, admissible only as a singleton
// (see Admissible), therefore has no slot: callers keep singletons
// elsewhere.
type Index struct {
	slots uint64
	shift uint   // tables [0, shift) are in constrained groups, the rest free
	mask  uint64 // the constrained tables' bits, 1<<shift - 1, kept so Of stays cheap enough to inline
	// tab holds one table per chunk of indexChunkBits constrained-table
	// bits (the last may be narrower): the summed digit·weight of the
	// chunk's groups. Of costs one lookup per chunk, and no table
	// outgrows a chunk however many groups there are.
	tab []int
}

// indexChunkBits holds a whole number of pairs (3) and of triples (2).
const indexChunkBits = 6

// Index returns the partition's perfect index.
func (cs *ConstraintSet) Index() *Index { return &cs.index }

// buildIndex fills cs.index from the constraint list, in O(l) time and
// space.
func (cs *ConstraintSet) buildIndex() {
	const chunkLen = 1 << indexChunkBits
	g, ix := uint(cs.Space.groupSize()), &cs.index
	ix.shift = g * uint(len(cs.List))
	ix.mask = uint64(cs.constrainedTables)
	ix.slots = 1 << (uint(cs.N) - ix.shift)
	size := ix.shift / indexChunkBits * chunkLen
	if rest := ix.shift % indexChunkBits; rest > 0 {
		size += 1 << rest // the last, narrower chunk
	}
	ix.tab = make([]int, size)
	for i := len(cs.List) - 1; i >= 0; i-- { // least significant group first
		lo := g * uint(i)
		digit, ord := groupDigits(cs.Space, cs.List[i], lo)
		chunk := ix.tab[lo/indexChunkBits*chunkLen:]
		chunk = chunk[:min(len(chunk), chunkLen)]
		for b := range chunk {
			chunk[b] += digit[b>>(lo%indexChunkBits)&(1<<g-1)] * int(ix.slots)
		}
		ix.slots *= uint64(ord)
	}
}

// groupDigits returns the digit of every subset of c's group, by the
// group's bits (its lowest table lo is bit 0): its ordinal among the
// group's admissible subsets in ascending mask order, an inadmissible
// subset sharing its successor's. ord is the group's admissible count.
func groupDigits(space Space, c Constraint, lo uint) (digit [8]int, ord int) {
	for b := range 1 << space.groupSize() {
		digit[b] = ord
		if !violates(space, c, bitset.Set(b)<<lo) {
			ord++
		}
	}
	return digit, ord
}

// weight returns the weight of the constrained group whose lowest table
// is lo: Of({lo}), as only ∅ comes before {lo} in the group, so {lo}'s
// digit is 1 whatever the group and direction.
func (ix *Index) weight(lo uint) int {
	return ix.tab[lo/indexChunkBits<<indexChunkBits|1<<(lo%indexChunkBits)]
}

// Step returns Of(u) − Of(u∖{t}) in a linear partition, for an
// admissible u of three or more tables and a table t that InnerAllowed
// lets be its inner operand. A pair's digit is its element count, so
// removing t lowers t's pair's digit by one; a free table's share is its
// bit.
func (ix *Index) Step(t int) int {
	if ut := uint(t); ut >= ix.shift {
		return 1 << (ut - ix.shift)
	}
	return ix.weight(uint(t) &^ 1)
}

// Of returns the slot of admissible set s.
func (ix *Index) Of(s bitset.Set) int {
	idx := int(uint64(s) >> (ix.shift & 63)) // shift < 63; saying so spares the shift its range check
	for v, off := uint64(s)&ix.mask, 0; off < len(ix.tab); off += 1 << indexChunkBits {
		idx += ix.tab[off+int(v&(1<<indexChunkBits-1))]
		v >>= indexChunkBits
	}
	return idx
}

// Splitter enumerates the admissible operand splits of a bushy
// partition's join results; the per-partition dynamic program allocates
// one Splitter and calls ForEachSplit once per admissible join result.
type Splitter struct{ cs *ConstraintSet }

// NewSplitter returns a Splitter for this bushy partition.
func (cs *ConstraintSet) NewSplitter() *Splitter { return &Splitter{cs: cs} }

// division splits a triple's part s of a join result into admissible
// parts sub (left) and s∖sub (right), with the digits Index gives them.
type division struct {
	sub            bitset.Set
	lDigit, rDigit int
}

// divisions[d][s] lists the divisions of triple part s, by the triple's
// bits, in ascending sub order, under constraint direction d: 0 for
// x ⪯ y|z, 1 for y ⪯ x|z. Nothing else of a partition changes them, so
// they are built once.
var divisions = func() (t [2][8][]division) {
	for d := range t {
		c := Constraint{X: d, Y: 1 - d, Z: 2}
		digit, _ := groupDigits(Bushy, c, 0)
		for s := range t[d] {
			bitset.Set(s).Subsets(func(sub bitset.Set) {
				rest := bitset.Set(s) &^ sub
				if !violates(Bushy, c, sub) && !violates(Bushy, c, rest) {
					t[d][s] = append(t[d][s], division{sub, digit[sub], digit[rest]})
				}
			})
		}
	}
	return t
}()

// ForEachLeft enumerates every admissible left operand L of join result u
// in the bushy space (Algorithm 5, TrySplits[Bushy]): both L and u\L are
// admissible, L ≠ ∅ and L ≠ u. The enumeration constructs only
// admissible operands (its complexity is linear in the number of
// admissible rather than possible splits). With no constraints it yields
// every proper subset, i.e. the classical bushy DP split enumeration.
func (sp *Splitter) ForEachLeft(u bitset.Set, fn func(left bitset.Set)) {
	sp.ForEachSplit(u, func(left bitset.Set, _, _ int) { fn(left) })
}

// ForEachSplit calls fn for every admissible left operand of u, in
// ForEachLeft's order — triples in constraint order with each part's
// subsets ascending, the free tables' subsets innermost and ascending —
// with the slots lrank = Index.Of(left) and rrank = Index.Of(u∖left).
// Each triple adds its division's digits times the triple's weight to
// the two ranks, and the free tables' subset fs adds fs and free∖fs,
// shifted down to the free tables' bits.
func (sp *Splitter) ForEachSplit(u bitset.Set, fn func(left bitset.Set, lrank, rrank int)) {
	cs, ix := sp.cs, &sp.cs.index
	free := u.Minus(cs.constrainedTables)
	var rec func(gi int, acc bitset.Set, lrank, rrank int)
	rec = func(gi int, acc bitset.Set, lrank, rrank int) {
		if gi == len(cs.List) {
			free.Subsets(func(fs bitset.Set) {
				if left := acc.Union(fs); !left.IsEmpty() && left != u {
					fn(left, lrank+int(fs>>ix.shift), rrank+int((free^fs)>>ix.shift))
				}
			})
			return
		}
		lo := 3 * uint(gi)
		w := ix.weight(lo)
		// The direction: X is the triple's first table or its second.
		for _, d := range divisions[cs.List[gi].X-3*gi][u>>lo&7] {
			rec(gi+1, acc.Union(d.sub<<lo), lrank+d.lDigit*w, rrank+d.rDigit*w)
		}
	}
	rec(0, bitset.Empty(), 0, 0)
}

// NaiveForEachLeft enumerates the same admissible left operands as
// ForEachLeft by generating every proper subset of u and filtering — the
// approach the paper deliberately avoids for bushy spaces because its
// complexity is linear in the number of possible rather than admissible
// splits (§4.2). It exists as the ablation baseline for that design
// choice; see the benchmarks.
func (cs *ConstraintSet) NaiveForEachLeft(u bitset.Set, fn func(left bitset.Set)) {
	u.ProperSubsets(func(left bitset.Set) {
		if cs.Admissible(left) && cs.Admissible(u.Minus(left)) {
			fn(left)
		}
	})
}

// Describe renders the constraint list for logs and CLI output.
func (cs *ConstraintSet) Describe() string {
	if len(cs.List) == 0 {
		return "(unconstrained)"
	}
	parts := make([]string, len(cs.List))
	for i, c := range cs.List {
		parts[i] = c.String()
	}
	return strings.Join(parts, ", ")
}
