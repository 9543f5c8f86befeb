// Package mo implements the master's side of multi-objective query
// optimization: cost vectors, the merge of per-partition Pareto
// frontiers, the robust winner, and the exact-frontier and coverage
// measurements of Table 1. The α-approximate pruning function of Trummer
// & Koch [22, 23], which the paper plugs into the shared
// dynamic-programming scheme for its second experiment series (§6), is
// dp.Pareto, and the master applies it too: Merge and ExactFrontier are
// dp.Prune under dp.Pareto, the rule the workers apply to every table
// set, with orders ignored at the root.
//
// The two metrics are the paper's: execution time (plan.Node.Cost) and
// buffer space (plan.Node.Buffer). A plan p α-dominates q iff
// p.time ≤ α·q.time and p.buffer ≤ α·q.buffer. With α = 1 the merge
// retains the exact Pareto frontier; α > 1 coarsens the frontier, trading
// precision for speed with the formal guarantee that every discarded
// vector has an α-dominating witness among the retained plans.
package mo

import (
	"fmt"

	"mpq/internal/dp"
	"mpq/internal/plan"
)

// Vector is a plan's cost in the two objectives.
type Vector struct {
	Time   float64
	Buffer float64
}

// VecOf extracts the cost vector of a plan.
func VecOf(p *plan.Node) Vector { return Vector{Time: p.Cost, Buffer: p.Buffer} }

// Dominates reports whether v is at least as good as w in every metric
// (weak Pareto dominance).
func (v Vector) Dominates(w Vector) bool {
	return v.Time <= w.Time && v.Buffer <= w.Buffer
}

// AlphaDominates reports whether v is within factor alpha of beating w in
// every metric: v ≤ α·w component-wise.
func (v Vector) AlphaDominates(w Vector, alpha float64) bool {
	return v.Time <= alpha*w.Time && v.Buffer <= alpha*w.Buffer
}

// String renders the vector for logs.
func (v Vector) String() string { return fmt.Sprintf("(time=%.4g, buffer=%.4g)", v.Time, v.Buffer) }

// Merge combines per-partition frontiers into one: the master's
// FinalPrune for multi-objective optimization, which is dp.Prune under
// dp.Pareto{Alpha: alpha} — the workers' rule, with its α clamp, and
// with orders ignored at the root (§4.2).
func Merge(frontiers [][]*plan.Node, alpha float64) []*plan.Node {
	return dp.Prune(dp.Pareto{Alpha: alpha}, frontiers...)
}

// MinWorstCase selects the robust winner from a merged frontier in
// ascending cost, as Merge returns it: the first plan with the smallest
// Buffer annotation — under a RobustCost model that slot holds the
// plan's worst-case cost over the selectivity band. Ties thus go to the
// lower nominal Cost, then to the earlier frontier position, which keeps
// the choice deterministic across engines: they aggregate partition
// frontiers in partition-ID order. Returns nil for an empty frontier.
func MinWorstCase(plans []*plan.Node) *plan.Node {
	var best *plan.Node
	for _, p := range plans {
		if best == nil || p.Buffer < best.Buffer {
			best = p
		}
	}
	return best
}

// ExactFrontier filters an arbitrary plan list down to its exact Pareto
// frontier, in ascending cost: dp.Prune under dp.Pareto at α = 1, orders
// ignored. Used by tests and by the precision measurement of Table 1.
func ExactFrontier(plans []*plan.Node) []*plan.Node {
	return dp.Prune(dp.Pareto{Alpha: 1}, plans)
}

// IsFrontier reports whether no plan in the list dominates another —
// the structural invariant of a Pareto set. Plans with equal vectors
// count as mutual domination.
func IsFrontier(plans []*plan.Node) bool {
	for i, p := range plans {
		for j, q := range plans {
			if i != j && VecOf(p).Dominates(VecOf(q)) {
				return false
			}
		}
	}
	return true
}

// CoverageError returns the worst-case factor by which frontier "approx"
// fails to α-cover the reference frontier "exact": for every exact plan,
// the smallest factor f such that some approximate plan f-dominates it;
// the maximum of those over the exact frontier. 1 means perfect coverage.
func CoverageError(approx, exact []*plan.Node) float64 {
	worst := 1.0
	for _, e := range exact {
		ev := VecOf(e)
		best := -1.0
		for _, a := range approx {
			av := VecOf(a)
			f := 1.0
			if ev.Time > 0 && av.Time/ev.Time > f {
				f = av.Time / ev.Time
			}
			if ev.Buffer > 0 && av.Buffer/ev.Buffer > f {
				f = av.Buffer / ev.Buffer
			}
			if best < 0 || f < best {
				best = f
			}
		}
		if best > worst {
			worst = best
		}
	}
	return worst
}
