// Package pooluser exercises the arenaescape analyzer: nodes produced
// by plan.Arena constructors must not outlive the run that allocated
// them — no field stores, returns or channel sends without a
// plan.CloneTree deep copy. It imports the repository's own plan
// package, so the analyzer is proven on today's Arena, not a stub of
// it: every node-returning Arena method (Scan, Join, JoinWithScalars)
// has a flagged case below.
package pooluser

import (
	"mpq/internal/cost"
	"mpq/internal/plan"
	"mpq/internal/query"
)

type solver struct {
	best  *plan.Node
	memo  map[int]*plan.Node
	arena plan.Arena
	m     cost.Model
	q     *query.Query
	spec  plan.JoinSpec
}

// storeField stores an arena node to a struct field: flagged.
func (s *solver) storeField() {
	n := s.arena.Scan(s.m, s.q, 1)
	s.best = n // want "arena-allocated plan node is stored to a struct field"
}

// storeElem stores one to a map element: flagged.
func (s *solver) storeElem() {
	n := s.arena.Join(s.m, s.arena.Scan(s.m, s.q, 1), s.arena.Scan(s.m, s.q, 2), s.spec)
	s.memo[1] = n // want "arena-allocated plan node is stored to a slice or map element"
}

// returnNode returns one: flagged, including taint through locals.
func (s *solver) returnNode() *plan.Node {
	x := s.arena.Scan(s.m, s.q, 3)
	y := x
	return y // want "arena-allocated plan node is returned"
}

// sendNode sends one on a channel: flagged.
func (s *solver) sendNode(out chan *plan.Node) {
	out <- s.arena.Scan(s.m, s.q, 4) // want "arena-allocated plan node is sent on a channel"
}

// survivor builds a join the way the dynamic program's survivor path
// does, from precomputed scalars, and returns it: flagged.
func (s *solver) survivor(l, r *plan.Node) *plan.Node {
	c, buf := plan.JoinScalars(s.m, l, r, s.spec)
	return s.arena.JoinWithScalars(l, r, s.spec, c, buf) // want "arena-allocated plan node is returned"
}

// retain builds a survivor from precomputed scalars and keeps it in a
// field: flagged.
func (s *solver) retain(l, r *plan.Node) {
	s.best = s.arena.JoinWithScalars(l, r, s.spec, 1, 0) // want "arena-allocated plan node is stored to a struct field"
}

// cloneOut deep-copies before every escape: compliant.
func (s *solver) cloneOut(out chan *plan.Node) *plan.Node {
	n := s.arena.Join(s.m, s.arena.Scan(s.m, s.q, 1), s.arena.Scan(s.m, s.q, 2), s.spec)
	s.best = plan.CloneTree(n)
	out <- plan.CloneTree(s.arena.JoinWithScalars(n, n, s.spec, 1, 0))
	return plan.CloneTree(n)
}

// localOnly keeps arena nodes local to the run: compliant.
func (s *solver) localOnly() int {
	n := s.arena.Join(s.m, s.arena.Scan(s.m, s.q, 1), s.arena.Scan(s.m, s.q, 2), s.spec)
	depth := 0
	for n != nil {
		depth++
		n = n.Left
	}
	return depth
}

// allowedEscape is the reasoned exception: the field is cleared before
// the arena's next Reset (the fixture's stand-in for an audited
// same-run scratch slot), so the store carries an allow directive.
func (s *solver) allowedEscape() {
	n := s.arena.Scan(s.m, s.q, 9)
	s.best = n //lint:allow arenaescape fixture: scratch slot cleared before the arena resets
	s.best = nil
}
