package pqo

import (
	"context"
	"math"
	"testing"

	"mpq/internal/core"
	"mpq/internal/partition"
	"mpq/internal/plan"
	"mpq/internal/query"
	"mpq/internal/workload"
)

func gen(t testing.TB, n int, seed int64) *query.Query {
	t.Helper()
	return workload.MustGenerate(workload.NewParams(n, workload.Star), seed)
}

// frontierOf runs the parametric job on the in-process engine's entry
// point and returns the parametric-optimal plan set.
func frontierOf(t testing.TB, q *query.Query, space partition.Space, workers int, spill float64) []*plan.Node {
	t.Helper()
	ans, err := core.OptimizeContext(context.Background(), q, JobSpec(space, workers, spill))
	if err != nil {
		t.Fatal(err)
	}
	return ans.Frontier
}

func approx(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

// The central PQO correctness property: for every parameter value θ, the
// envelope of the parametric frontier matches the optimum of a scalar DP
// specialized to θ.
func TestEnvelopeMatchesSpecializedDP(t *testing.T) {
	const spill = DefaultSpill
	for seed := int64(0); seed < 4; seed++ {
		q := gen(t, 7, seed)
		frontier := frontierOf(t, q, partition.Linear, 4, spill)
		if len(frontier) == 0 {
			t.Fatal("empty frontier")
		}
		for _, theta := range []float64{0, 0.1, 0.25, 0.5, 0.75, 0.9, 1} {
			best, err := Best(frontier, theta)
			if err != nil {
				t.Fatal(err)
			}
			oracle, err := core.OptimizeContext(context.Background(), q, core.JobSpec{
				Space: partition.Linear, Workers: 1, CostModel: SpecializedModel(spill, theta),
			})
			if err != nil {
				t.Fatal(err)
			}
			if !approx(CostAt(best, theta), oracle.Best.Cost) {
				t.Fatalf("seed=%d θ=%g: envelope %g != specialized DP %g",
					seed, theta, CostAt(best, theta), oracle.Best.Cost)
			}
		}
	}
}

// Parallelization invariance: the parametric frontier is identical for
// every worker count.
func TestParametricMPQIndependentOfWorkers(t *testing.T) {
	q := gen(t, 8, 5)
	ref := frontierOf(t, q, partition.Linear, 1, DefaultSpill)
	for _, m := range []int{2, 8, 16} {
		got := frontierOf(t, q, partition.Linear, m, DefaultSpill)
		if len(got) != len(ref) {
			t.Fatalf("m=%d: frontier size %d != %d", m, len(got), len(ref))
		}
		for i := range ref {
			if !approx(got[i].Cost, ref[i].Cost) || !approx(got[i].Buffer, ref[i].Buffer) {
				t.Fatalf("m=%d: frontier[%d] differs", m, i)
			}
		}
	}
}

func TestCostAtLinearInterpolation(t *testing.T) {
	p := &plan.Node{Cost: 10, Buffer: 30}
	if CostAt(p, 0) != 10 || CostAt(p, 1) != 30 || CostAt(p, 0.5) != 20 {
		t.Fatal("CostAt interpolation")
	}
}

func TestBestValidation(t *testing.T) {
	if _, err := Best(nil, 0.5); err == nil {
		t.Fatal("empty frontier accepted")
	}
	p := &plan.Node{Cost: 1, Buffer: 1}
	if _, err := Best([]*plan.Node{p}, -0.1); err == nil {
		t.Fatal("theta < 0 accepted")
	}
	if _, err := Best([]*plan.Node{p}, 1.5); err == nil {
		t.Fatal("theta > 1 accepted")
	}
	if _, err := Best([]*plan.Node{p}, math.NaN()); err == nil {
		t.Fatal("NaN theta accepted")
	}
}

func TestBreakpoints(t *testing.T) {
	// Two lines crossing at θ=0.5: c_a(θ)=10+20θ, c_b(θ)=20.
	a := &plan.Node{Cost: 10, Buffer: 30}
	b := &plan.Node{Cost: 20, Buffer: 20}
	bps, err := Breakpoints([]*plan.Node{a, b})
	if err != nil {
		t.Fatal(err)
	}
	if len(bps) != 3 || bps[0] != 0 || bps[2] != 1 || math.Abs(bps[1]-0.5) > 1e-12 {
		t.Fatalf("breakpoints = %v", bps)
	}
	// Single plan: no interior breakpoints.
	bps, err = Breakpoints([]*plan.Node{a})
	if err != nil {
		t.Fatal(err)
	}
	if len(bps) != 2 {
		t.Fatalf("breakpoints = %v", bps)
	}
	if _, err := Breakpoints(nil); err == nil {
		t.Fatal("empty frontier accepted")
	}
}

// Each parameter region delimited by breakpoints has a constant optimal
// plan, and adjacent regions have different ones.
func TestBreakpointsDelimitConstantRegions(t *testing.T) {
	q := gen(t, 7, 2)
	frontier := frontierOf(t, q, partition.Linear, 4, DefaultSpill)
	bps, err := Breakpoints(frontier)
	if err != nil {
		t.Fatal(err)
	}
	var regionPlans []*plan.Node
	for i := 0; i+1 < len(bps); i++ {
		lo, hi := bps[i], bps[i+1]
		var regionBest *plan.Node
		for k := 0; k <= 4; k++ {
			theta := lo + (hi-lo)*(float64(k)+0.5)/5.5
			best, err := Best(frontier, theta)
			if err != nil {
				t.Fatal(err)
			}
			if regionBest == nil {
				regionBest = best
			} else if !approx(CostAt(best, theta), CostAt(regionBest, theta)) {
				t.Fatalf("region [%g,%g]: optimal plan changed inside region", lo, hi)
			}
		}
		regionPlans = append(regionPlans, regionBest)
	}
	for i := 1; i < len(regionPlans); i++ {
		if regionPlans[i] == regionPlans[i-1] {
			t.Fatalf("regions %d and %d share a plan — spurious breakpoint %g", i-1, i, bps[i])
		}
	}
}

// Spill factor 1 collapses the parametric problem to the scalar one.
func TestSpillOneIsScalar(t *testing.T) {
	q := gen(t, 6, 1)
	frontier := frontierOf(t, q, partition.Linear, 2, 1)
	if len(frontier) != 1 {
		t.Fatalf("spill=1 frontier has %d plans", len(frontier))
	}
	serial, err := core.OptimizeContext(context.Background(), q, core.JobSpec{Space: partition.Linear, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !approx(frontier[0].Cost, serial.Best.Cost) {
		t.Fatal("spill=1 optimum differs from scalar DP")
	}
}

func TestJobSpecShape(t *testing.T) {
	s := JobSpec(partition.Bushy, 4, 2.5)
	if s.Objective != core.MultiObjective || s.Alpha != 1 {
		t.Fatalf("spec %+v", s)
	}
	if s.CostModel.HashSpillFactor != 2.5 {
		t.Fatal("spill not plumbed")
	}
	if err := s.Validate(9); err != nil {
		t.Fatal(err)
	}
}
