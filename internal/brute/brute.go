// Package brute exhaustively enumerates query plans for small queries.
//
// It serves two roles: a first-principles oracle for the dynamic
// programmer's correctness tests (the DP's best cost must equal the
// exhaustive minimum), and the naive baseline that motivates dynamic
// programming in the first place. Complexity is super-exponential; keep
// n at or below roughly 7 for the linear and 5 for the bushy space.
package brute

import (
	"mpq/internal/bitset"
	"mpq/internal/cost"
	"mpq/internal/partition"
	"mpq/internal/plan"
	"mpq/internal/query"
)

// Options mirrors the dp.Options knobs relevant to plan enumeration.
type Options struct {
	Model             cost.Model
	InterestingOrders bool
}

func (o Options) withDefaults() Options {
	if o.Model == (cost.Model{}) {
		o.Model = cost.Default()
	}
	return o
}

// AllPlans returns every plan in the given space for query q, without any
// pruning. The same operator alternatives as the DP are enumerated:
// nested-loop and hash joins always, sort-merge joins when a predicate
// connects the operands (one plan per connecting predicate when
// interesting orders are on, one order-less sort-merge plan otherwise).
func AllPlans(q *query.Query, space partition.Space, opts Options) []*plan.Node {
	opts = opts.withDefaults()
	q.Freeze()
	e := enumerator{q: q, space: space, opts: opts, memo: map[bitset.Set][]*plan.Node{}, hi: map[bitset.Set]float64{}}
	return e.plansFor(q.All())
}

type enumerator struct {
	q     *query.Query
	space partition.Space
	opts  Options
	memo  map[bitset.Set][]*plan.Node
	// hi is each set's high-endpoint cardinality under a RobustCost
	// model, computed as dp.combine and plan.Node.Validate do.
	hi map[bitset.Set]float64
}

func (e *enumerator) plansFor(s bitset.Set) []*plan.Node {
	if ps, ok := e.memo[s]; ok {
		return ps
	}
	var out []*plan.Node
	if s.IsSingleton() {
		out = []*plan.Node{plan.Scan(e.opts.Model, e.q, s.Min())}
		e.memo[s], e.hi[s] = out, out[0].Card
		return out
	}
	card := e.q.CardOf(s)
	s.ProperSubsets(func(left bitset.Set) {
		right := s.Minus(left)
		if e.space == partition.Linear && !right.IsSingleton() {
			// Left-deep plans take single tables as inner operands; the
			// recursion keeps the left subtree linear automatically.
			return
		}
		lps := e.plansFor(left)
		rps := e.plansFor(right)
		if _, ok := e.hi[s]; !ok && e.opts.Model.Second == cost.RobustCost {
			e.hi[s] = e.hi[left] * e.hi[right] * e.q.SelBetweenInflated(left, right, e.opts.Model.RobustBand)
		}
		preds := e.q.ConnectingPreds(nil, left, right)
		for _, lp := range lps {
			for _, rp := range rps {
				out = append(out, e.join(lp, rp, plan.JoinSpec{
					Alg: cost.NestedLoop, OutCard: card, Pred: plan.NoPred, Order: lp.Order,
				}))
				out = append(out, e.join(lp, rp, plan.JoinSpec{
					Alg: cost.Hash, OutCard: card, Pred: plan.NoPred, Order: query.NoOrder,
				}))
				if len(preds) == 0 {
					continue
				}
				if !e.opts.InterestingOrders {
					out = append(out, e.join(lp, rp, plan.JoinSpec{
						Alg: cost.SortMerge, OutCard: card, Pred: plan.NoPred, Order: query.NoOrder,
					}))
					continue
				}
				for _, pi := range preds {
					p := e.q.Preds[pi]
					la, ra := plan.MergeAttrs(p, left)
					out = append(out, e.join(lp, rp, plan.JoinSpec{
						Alg: cost.SortMerge, OutCard: card, Pred: pi,
						Order:   plan.CanonicalMergeOrder(p),
						LSorted: lp.Order == la, RSorted: rp.Order == ra,
					}))
				}
			}
		}
	})
	e.memo[s] = out
	return out
}

// join builds one plan. Under a RobustCost model its Buffer is the
// worst-case cost over the operands' high-endpoint cardinalities.
func (e *enumerator) join(lp, rp *plan.Node, spec plan.JoinSpec) *plan.Node {
	m := e.opts.Model
	if m.Second != cost.RobustCost {
		return plan.Join(m, lp, rp, spec)
	}
	c, buf := plan.JoinScalarsRobust(m, lp, rp, spec, e.hi[lp.Tables], e.hi[rp.Tables])
	return plan.JoinWithScalars(lp, rp, spec, c, buf)
}

// BestCost returns the exhaustive minimum time-metric cost over the plan
// space.
func BestCost(q *query.Query, space partition.Space, opts Options) float64 {
	best := -1.0
	for _, p := range AllPlans(q, space, opts) {
		if best < 0 || p.Cost < best {
			best = p.Cost
		}
	}
	return best
}

// Filter returns the plans satisfying keep.
func Filter(plans []*plan.Node, keep func(*plan.Node) bool) []*plan.Node {
	var out []*plan.Node
	for _, p := range plans {
		if keep(p) {
			out = append(out, p)
		}
	}
	return out
}

// RespectsConstraints reports whether plan p belongs to the plan-space
// partition defined by cs (§4.2). All join results in the plan must be
// admissible; in the linear space the inner operand of each join must
// additionally satisfy the precedence rule of Algorithm 5 line 7 (a
// table x constrained as x ≺ y may not be joined while y is already in
// the result), which is not implied by set admissibility alone when both
// operands are singletons.
func RespectsConstraints(p *plan.Node, cs *partition.ConstraintSet) bool {
	ok := true
	var walk func(n *plan.Node)
	walk = func(n *plan.Node) {
		if n == nil || !ok {
			return
		}
		if !cs.Admissible(n.Tables) {
			ok = false
			return
		}
		if n.IsScan {
			return
		}
		if cs.Space == partition.Linear && n.Right.IsScan &&
			!cs.InnerAllowed(n.Tables, n.Right.Table) {
			ok = false
			return
		}
		walk(n.Left)
		walk(n.Right)
	}
	walk(p)
	return ok
}
