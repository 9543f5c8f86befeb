// Package pqo implements parametric query optimization on top of the
// shared dynamic-programming scheme — one of the optimization variants
// the paper's §2 and §4 name as covered by the generic plan-space
// partitioning ("parametric query optimization [7, 13]"; only the
// pruning function differs).
//
// The parameter θ ∈ [0, 1] models run-time memory pressure: at θ=0 hash
// joins run in memory at their nominal cost, at θ=1 they spill and cost
// cost.Model.HashSpillFactor times more; every operator cost is linear
// in θ, so a plan's cost is the line c(θ) = (1-θ)·c0 + θ·c1. A plan can
// be optimal for some θ iff the pair (c0, c1) is Pareto-optimal, so the
// exact parametric-optimal plan set is obtained by running the engine
// with the ParametricCost second metric and α=1 Pareto pruning. MPQ
// parallelizes it unchanged: a parametric job is JobSpec's spec run
// through any engine, and its answer's Frontier is the input of Best
// and Breakpoints.
package pqo

import (
	"fmt"
	"math"

	"mpq/internal/core"
	"mpq/internal/cost"
	"mpq/internal/partition"
	"mpq/internal/plan"
)

// DefaultSpill is the default θ=1 hash-join cost multiplier.
const DefaultSpill = 3.0

// JobSpec builds the MPQ job specification for parametric optimization
// over m workers: multi-objective exact pruning over (cost(0), cost(1))
// with the parametric cost model. The answer's Frontier is the
// parametric-optimal plan set, sorted by c0.
func JobSpec(space partition.Space, workers int, spill float64) core.JobSpec {
	return core.JobSpec{
		Space:     space,
		Workers:   workers,
		Objective: core.MultiObjective,
		Alpha:     1,
		CostModel: cost.Parametric(spill),
	}
}

// CostAt evaluates a parametric plan's cost at parameter value theta.
// The plan must have been built with the ParametricCost second metric
// (Node.Cost is c0, Node.Buffer is c1).
func CostAt(p *plan.Node, theta float64) float64 {
	return (1-theta)*p.Cost + theta*p.Buffer
}

// Best returns the frontier plan with minimal cost at theta — the plan
// the executor would pick once the parameter becomes known at run time.
// Ties within float noise resolve to the earliest frontier plan, so that
// nearly identical cost lines cannot produce spurious plan switches.
func Best(frontier []*plan.Node, theta float64) (*plan.Node, error) {
	if len(frontier) == 0 {
		return nil, fmt.Errorf("pqo: empty plan set")
	}
	if theta < 0 || theta > 1 || math.IsNaN(theta) {
		return nil, fmt.Errorf("pqo: parameter %g outside [0,1]", theta)
	}
	best := frontier[0]
	bestCost := CostAt(best, theta)
	for _, p := range frontier[1:] {
		if c := CostAt(p, theta); c < bestCost*(1-1e-12) {
			best, bestCost = p, c
		}
	}
	return best, nil
}

// Breakpoints returns the parameter values where the lower envelope of
// the frontier switches plans, in ascending order including the
// endpoints 0 and 1. Consecutive breakpoints delimit the parameter
// regions with a constant optimal plan — the classical PQO output [13].
func Breakpoints(frontier []*plan.Node) ([]float64, error) {
	if len(frontier) == 0 {
		return nil, fmt.Errorf("pqo: empty plan set")
	}
	points := []float64{0, 1}
	for i, p := range frontier {
		for _, q := range frontier[i+1:] {
			// Intersection of the two cost lines.
			da := p.Buffer - p.Cost // slope of p
			db := q.Buffer - q.Cost
			if da == db {
				continue
			}
			theta := (q.Cost - p.Cost) / (da - db)
			if theta > 0 && theta < 1 {
				points = append(points, theta)
			}
		}
	}
	sortFloats(points)
	// Merge breakpoints that coincide within float noise, keeping the
	// first of each cluster.
	const minWidth = 1e-9
	merged := points[:1]
	for _, p := range points[1:] {
		if p-merged[len(merged)-1] > minWidth {
			merged = append(merged, p)
		}
	}
	if merged[len(merged)-1] != 1 {
		merged = append(merged, 1)
	}
	points = merged
	// Keep only breakpoints where the argmin actually changes.
	out := points[:1]
	prevBest, err := Best(frontier, mid(points[0], points[1]))
	if err != nil {
		return nil, err
	}
	for i := 1; i < len(points)-1; i++ {
		curBest, err := Best(frontier, mid(points[i], points[i+1]))
		if err != nil {
			return nil, err
		}
		if curBest != prevBest {
			out = append(out, points[i])
			prevBest = curBest
		}
	}
	return append(out, 1), nil
}

func mid(a, b float64) float64 { return (a + b) / 2 }

func sortFloats(xs []float64) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}

// SpecializedModel returns the scalar cost model at a fixed parameter
// value: hash joins cost (1 + θ·(spill-1)) times their nominal cost.
// A scalar DP under this model is the oracle the parametric optimizer's
// envelope is tested against.
func SpecializedModel(spill, theta float64) cost.Model {
	m := cost.Default()
	m.HashFactor *= 1 + theta*(spill-1)
	return m
}
