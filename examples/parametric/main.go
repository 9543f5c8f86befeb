// Parametric query optimization: when plan cost depends on a run-time
// parameter (here memory pressure θ: hash joins spill and get more
// expensive as θ grows), the optimizer returns one plan per parameter
// region instead of a single plan. The paper's plan-space partitioning
// parallelizes this variant unchanged — only the pruning function
// differs (§2, §4).
//
// A parametric job is a JobSpec like any other (mpq.ParametricSpec), so
// every step below — the frontier and both cross-checks — runs on the
// engine the -engine flag selects. The cross-check: a scalar job whose
// JobSpec.CostModel is specialized at a fixed θ must find a plan
// exactly as cheap as the frontier plan chosen for that θ.
//
// Run with: go run ./examples/parametric
// Try:      go run ./examples/parametric -engine serial   (or sim)
package main

import (
	"context"
	"fmt"
	"log"
	"math"

	"mpq"
	"mpq/internal/cliutil"
)

func main() {
	eng := cliutil.MustParseEngine("local")
	ctx := context.Background()

	_, q, err := mpq.GenerateWorkload(mpq.NewWorkloadParams(9, mpq.Star), 17)
	if err != nil {
		log.Fatal(err)
	}

	// Hash joins cost 25x more at full memory pressure (θ=1).
	const spill = 25.0
	param, err := eng.Optimize(ctx, q, mpq.ParametricSpec(mpq.Linear, 4, spill))
	if err != nil {
		log.Fatal(err)
	}
	frontier := param.Frontier
	fmt.Printf("parametric-optimal plan set: %d plans\n", len(frontier))
	for i, p := range frontier {
		if i == 5 {
			fmt.Printf("  ... and %d more\n", len(frontier)-5)
			break
		}
		fmt.Printf("  #%d cost(θ=0)=%.4g cost(θ=1)=%.4g  %s\n", i+1, p.Cost, p.Buffer, p)
	}

	// The parameter space decomposes into regions with a constant
	// optimal plan — decide at run time with zero re-optimization.
	bps, err := mpq.ParametricBreakpoints(frontier)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\noptimality regions:")
	for i := 0; i+1 < len(bps); i++ {
		mid := (bps[i] + bps[i+1]) / 2
		best, err := mpq.ParametricBest(frontier, mid)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  θ ∈ [%.3f, %.3f]: %s (cost at midpoint %.4g)\n",
			bps[i], bps[i+1], best, mpq.ParametricCostAt(best, mid))
	}

	// Cross-check: specialize the cost model at θ = 0.5 and re-optimize
	// from scratch as a scalar job. The scalar optimum must cost exactly
	// what the frontier's θ=0.5 plan costs.
	const theta = 0.5
	m := mpq.DefaultCostModel()
	m.HashFactor *= 1 + theta*(spill-1)
	ans, err := eng.Optimize(ctx, q, mpq.JobSpec{Space: mpq.Linear, Workers: 4, CostModel: m})
	if err != nil {
		log.Fatal(err)
	}
	best, err := mpq.ParametricBest(frontier, theta)
	if err != nil {
		log.Fatal(err)
	}
	want := mpq.ParametricCostAt(best, theta)
	fmt.Printf("\nθ=%.1f scalar re-optimization: cost %.6g; parametric frontier plan: cost %.6g\n",
		theta, ans.Best.Cost, want)
	if math.Abs(ans.Best.Cost-want) > 1e-9*want {
		log.Fatal("frontier disagrees with the specialized scalar optimum")
	}
	fmt.Println("the frontier plan is exactly the scalar optimum at that θ ✓")

	// And θ=0 is the plain cost model.
	plain, err := eng.Optimize(ctx, q, mpq.JobSpec{Space: mpq.Linear, Workers: 4})
	if err != nil {
		log.Fatal(err)
	}
	zero, err := mpq.ParametricBest(frontier, 0)
	if err != nil {
		log.Fatal(err)
	}
	if math.Abs(plain.Best.Cost-zero.Cost) > 1e-9*zero.Cost {
		log.Fatal("θ=0 frontier plan disagrees with the default-model optimum")
	}
	fmt.Println("θ=0 matches the default cost model's optimum ✓")
}
