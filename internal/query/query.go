// Package query defines the optimizer's problem model: a set of tables
// to join, connected by equality predicates with selectivity estimates.
//
// This follows §3 of the paper: a query is a set Q of tables; tables are
// numbered consecutively from 0 to |Q|-1 and all workers must use the
// same numbering so that the plan-space partitions tile the full space.
package query

import (
	"fmt"
	"math"
	"math/bits"

	"mpq/internal/bitset"
)

// Table is one base relation of the query with the statistics the cost
// model needs.
type Table struct {
	Name        string
	Cardinality float64
}

// Predicate is an equality join predicate between an attribute of table
// Left and an attribute of table Right (query-local table indices).
// Selectivity is the fraction of the Cartesian product it retains.
// Attribute ordinals enable interesting-order reasoning: a sort-merge
// join on this predicate leaves its output sorted on both attributes.
type Predicate struct {
	Left, Right         int
	LeftAttr, RightAttr int
	Selectivity         float64
}

// NoOrder marks a plan whose output has no useful sort order.
const NoOrder = -1

// AttrID encodes (table, attribute ordinal) into a single comparable
// order identifier. Attribute ordinals must be below 1<<16.
func AttrID(table, attr int) int { return table<<16 | attr }

// Query is an immutable join query. Build it with New and AddPredicate,
// then call Freeze (or any read accessor, which freezes implicitly).
type Query struct {
	Tables []Table
	Preds  []Predicate

	frozen bool
	adj    [][]int      // adj[t] = indices into Preds touching table t
	nbr    []bitset.Set // nbr[t] = tables sharing a predicate with t
	ends   []predEnds   // ends[i] = endpoint masks of Preds[i]
}

// predEnds holds a predicate's two endpoints as singleton masks, so the
// straddle test of SelBetween is four ANDs.
type predEnds struct{ l, r bitset.Set }

// straddles reports whether the predicate has one endpoint in a and the
// other in b.
func (e predEnds) straddles(a, b bitset.Set) bool {
	return (a&e.l != 0 && b&e.r != 0) || (a&e.r != 0 && b&e.l != 0)
}

// New creates a query over the given tables. At least two tables and at
// most bitset.MaxTables are supported.
func New(tables []Table) (*Query, error) {
	if len(tables) < 1 {
		return nil, fmt.Errorf("query: need at least one table")
	}
	if len(tables) > bitset.MaxTables {
		return nil, fmt.Errorf("query: %d tables exceeds maximum %d", len(tables), bitset.MaxTables)
	}
	for i, t := range tables {
		if !(t.Cardinality > 0) || math.IsInf(t.Cardinality, 0) {
			return nil, fmt.Errorf("query: table %d (%s) has invalid cardinality %g", i, t.Name, t.Cardinality)
		}
	}
	q := &Query{Tables: append([]Table(nil), tables...)}
	return q, nil
}

// MustNew is New for known-valid inputs; it panics on error.
func MustNew(tables []Table) *Query {
	q, err := New(tables)
	if err != nil {
		panic(err)
	}
	return q
}

// AddPredicate registers an equality predicate. Self-joins on the same
// query table are rejected (the model joins distinct query tables; a
// relational self-join appears as two query tables referencing the same
// base relation).
func (q *Query) AddPredicate(p Predicate) error {
	if q.frozen {
		return fmt.Errorf("query: AddPredicate after freeze")
	}
	n := len(q.Tables)
	if p.Left < 0 || p.Left >= n || p.Right < 0 || p.Right >= n {
		return fmt.Errorf("query: predicate table index out of range: %d, %d (n=%d)", p.Left, p.Right, n)
	}
	if p.Left == p.Right {
		return fmt.Errorf("query: predicate joins table %d with itself", p.Left)
	}
	if !(p.Selectivity > 0 && p.Selectivity <= 1) {
		return fmt.Errorf("query: predicate selectivity %g outside (0,1]", p.Selectivity)
	}
	if p.LeftAttr < 0 || p.LeftAttr >= 1<<16 || p.RightAttr < 0 || p.RightAttr >= 1<<16 {
		return fmt.Errorf("query: attribute ordinal out of range")
	}
	q.Preds = append(q.Preds, p)
	return nil
}

// MustAddPredicate panics on error.
func (q *Query) MustAddPredicate(p Predicate) {
	if err := q.AddPredicate(p); err != nil {
		panic(err)
	}
}

// Freeze finalizes the query: no further predicates may be added and the
// adjacency index, the per-table neighbour masks and the per-predicate
// endpoint masks are built. Freeze is idempotent.
func (q *Query) Freeze() {
	if !q.frozen {
		q.freeze()
	}
}

func (q *Query) freeze() {
	q.frozen = true
	q.adj = make([][]int, len(q.Tables))
	q.nbr = make([]bitset.Set, len(q.Tables))
	q.ends = make([]predEnds, len(q.Preds))
	for i, p := range q.Preds {
		q.adj[p.Left] = append(q.adj[p.Left], i)
		q.adj[p.Right] = append(q.adj[p.Right], i)
		e := predEnds{l: bitset.Single(p.Left), r: bitset.Single(p.Right)}
		q.ends[i] = e
		q.nbr[p.Left] |= e.r
		q.nbr[p.Right] |= e.l
	}
}

// N returns the number of tables.
func (q *Query) N() int { return len(q.Tables) }

// All returns the set of all query tables.
func (q *Query) All() bitset.Set { return bitset.Range(len(q.Tables)) }

// Card returns the base cardinality of table t.
func (q *Query) Card(t int) float64 { return q.Tables[t].Cardinality }

// Neighbors returns the tables that share a predicate with some table
// of s (members of s included when s has an internal predicate). A
// predicate connects disjoint sets a and b iff Neighbors(a) meets b;
// the union distributes, so the DP keeps it per memo entry at one OR
// per set.
func (q *Query) Neighbors(s bitset.Set) bitset.Set {
	q.Freeze()
	var out bitset.Set
	for ; s != 0; s &= s - 1 {
		out |= q.nbr[bits.TrailingZeros64(uint64(s))]
	}
	return out
}

// connects reports whether any predicate has one endpoint in a and the
// other in b, walking the neighbour masks of the smaller side.
func (q *Query) connects(a, b bitset.Set) bool {
	if a.Count() > b.Count() {
		a, b = b, a
	}
	return q.Neighbors(a)&b != 0
}

// SelBetween returns the combined selectivity of all predicates with one
// endpoint in a and the other in b. For disjoint a, b this is the factor
// by which the join of a-result and b-result shrinks the Cartesian
// product. Returns 1 if no predicate connects them (cross product).
func (q *Query) SelBetween(a, b bitset.Set) float64 {
	sel := 1.0
	q.Freeze()
	if t := single(a, b); t >= 0 {
		// Every straddling predicate touches t, and adj[t] lists them in
		// index order: the product associates as the full scan's does.
		if q.nbr[t]&(a|b) != 0 {
			for _, i := range q.adj[t] {
				if q.ends[i].straddles(a, b) {
					sel *= q.Preds[i].Selectivity
				}
			}
		}
		return sel
	}
	if !q.connects(a, b) {
		return sel
	}
	for i, e := range q.ends {
		if e.straddles(a, b) {
			sel *= q.Preds[i].Selectivity
		}
	}
	return sel
}

// SelBetweenInflated is SelBetween at the high endpoint of a
// multiplicative uncertainty band: every straddling predicate
// contributes min(1, Selectivity·band) instead of its point estimate.
// band must be ≥ 1. It iterates predicates in the same index order as
// SelBetween so the two products associate floats identically, which
// keeps robust annotations reproducible across engines.
func (q *Query) SelBetweenInflated(a, b bitset.Set, band float64) float64 {
	sel := 1.0
	q.Freeze()
	if t := single(a, b); t >= 0 {
		if q.nbr[t]&(a|b) != 0 {
			for _, i := range q.adj[t] {
				if q.ends[i].straddles(a, b) {
					sel *= math.Min(1, q.Preds[i].Selectivity*band)
				}
			}
		}
		return sel
	}
	if !q.connects(a, b) {
		return sel
	}
	for i, e := range q.ends {
		if e.straddles(a, b) {
			sel *= math.Min(1, q.Preds[i].Selectivity*band)
		}
	}
	return sel
}

// single returns the table of a if a is a single table, else that of b
// if b is, else −1. The DP's first split of a set almost always has one,
// and then only that table's predicates can straddle.
func single(a, b bitset.Set) int {
	if a != 0 && a&(a-1) == 0 {
		return bits.TrailingZeros64(uint64(a))
	}
	if b != 0 && b&(b-1) == 0 {
		return bits.TrailingZeros64(uint64(b))
	}
	return -1
}

// ConnectingPreds appends to dst the indices of predicates with one
// endpoint in a and the other in b, and returns the extended slice.
// It iterates over the adjacency lists of the smaller side (a on a
// tie), tables ascending — callers enumerate merge predicates in this
// order, so it is part of the plan-determinism contract.
func (q *Query) ConnectingPreds(dst []int, a, b bitset.Set) []int {
	q.Freeze()
	small, big := a, b
	if small.Count() > big.Count() {
		small, big = big, small
	}
	for rem := small; rem != 0; rem &= rem - 1 {
		t := bits.TrailingZeros64(uint64(rem))
		if q.nbr[t]&big == 0 {
			continue
		}
		self := rem & -rem
		for _, pi := range q.adj[t] {
			// The far endpoint must lie in big and not in small (the
			// latter cannot happen for the disjoint sets the DP passes;
			// guarded anyway so a predicate is never reported twice).
			e := q.ends[pi]
			if other := (e.l | e.r) &^ self; other&big != 0 && other&small == 0 {
				dst = append(dst, pi)
			}
		}
	}
	return dst
}

// CardOf computes the estimated cardinality of joining exactly the tables
// in s: the product of base cardinalities and of the selectivities of all
// predicates entirely within s. O(n + |preds|); used for validation and
// as the once-per-set computation in the DP.
func (q *Query) CardOf(s bitset.Set) float64 {
	card := 1.0
	s.ForEach(func(t int) { card *= q.Tables[t].Cardinality })
	for _, p := range q.Preds {
		if s.Contains(p.Left) && s.Contains(p.Right) {
			card *= p.Selectivity
		}
	}
	return card
}

// Connected reports whether the join graph restricted to s is connected.
// Cross products make disconnected sets legal plans; the optimizer does
// not require connectivity (the paper explicitly allows Cartesian
// products), but workload tooling and its tests use this to classify
// queries — a mask flood fill, no allocation.
func (q *Query) Connected(s bitset.Set) bool {
	if s.IsEmpty() {
		return true
	}
	q.Freeze()
	visited := s & -s
	for frontier := visited; frontier != 0; {
		t := bits.TrailingZeros64(uint64(frontier))
		frontier &= frontier - 1
		fresh := q.nbr[t] & s &^ visited
		visited |= fresh
		frontier |= fresh
	}
	return visited == s
}

// Validate performs structural checks and returns the first problem.
func (q *Query) Validate() error {
	if len(q.Tables) == 0 {
		return fmt.Errorf("query: no tables")
	}
	if len(q.Tables) > bitset.MaxTables {
		return fmt.Errorf("query: too many tables")
	}
	for i, t := range q.Tables {
		if !(t.Cardinality > 0) {
			return fmt.Errorf("query: table %d cardinality %g", i, t.Cardinality)
		}
	}
	for i, p := range q.Preds {
		if p.Left < 0 || p.Left >= len(q.Tables) || p.Right < 0 || p.Right >= len(q.Tables) || p.Left == p.Right {
			return fmt.Errorf("query: predicate %d endpoints (%d,%d) invalid", i, p.Left, p.Right)
		}
		if !(p.Selectivity > 0 && p.Selectivity <= 1) {
			return fmt.Errorf("query: predicate %d selectivity %g", i, p.Selectivity)
		}
	}
	return nil
}

// String renders a compact human-readable description.
func (q *Query) String() string {
	return fmt.Sprintf("Query{%d tables, %d predicates}", len(q.Tables), len(q.Preds))
}
