package core

import (
	"context"
	"math"
	"testing"

	"mpq/internal/mo"
	"mpq/internal/partition"
	"mpq/internal/query"
	"mpq/internal/workload"
)

const eps = 1e-9

func approx(a, b float64) bool {
	return math.Abs(a-b) <= eps*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

func gen(t testing.TB, n int, shape workload.Shape, seed int64) *query.Query {
	t.Helper()
	return workload.MustGenerate(workload.NewParams(n, shape), seed)
}

func TestObjectiveString(t *testing.T) {
	if SingleObjective.String() != "single-objective" || MultiObjective.String() != "multi-objective" {
		t.Fatal("objective names")
	}
	if Objective(7).String() != "Objective(7)" {
		t.Fatal("unknown objective")
	}
}

func TestJobSpecValidate(t *testing.T) {
	for _, good := range []JobSpec{
		{Space: partition.Linear, Workers: 4},
		{Space: partition.Linear, Workers: 2, Objective: MultiObjective, Alpha: 1},
		{Space: partition.Linear, Workers: 2, Objective: RobustObjective, Alpha: 1.5, RobustBand: 3},
	} {
		if err := good.Validate(8); err != nil {
			t.Fatalf("valid spec %+v rejected: %v", good, err)
		}
	}
	bad := []struct {
		name string
		spec JobSpec
		n    int
	}{
		{"space", JobSpec{Space: partition.Space(9), Workers: 2}, 8},
		{"workers-zero", JobSpec{Space: partition.Linear, Workers: 0}, 8},
		{"workers-npot", JobSpec{Space: partition.Linear, Workers: 6}, 8},
		{"workers-max", JobSpec{Space: partition.Linear, Workers: 32}, 8},
		{"objective", JobSpec{Space: partition.Linear, Workers: 2, Objective: Objective(5)}, 8},
		{"alpha", JobSpec{Space: partition.Linear, Workers: 2, Objective: MultiObjective, Alpha: 0.5}, 8},
		{"alpha-nan", JobSpec{Space: partition.Linear, Workers: 2, Objective: MultiObjective, Alpha: math.NaN()}, 8},
		{"alpha-nan-robust", JobSpec{Space: partition.Linear, Workers: 2, Objective: RobustObjective, Alpha: math.NaN()}, 8},
		{"band", JobSpec{Space: partition.Linear, Workers: 2, Objective: RobustObjective, RobustBand: 0.5}, 8},
		{"band-nan", JobSpec{Space: partition.Linear, Workers: 2, Objective: RobustObjective, RobustBand: math.NaN()}, 8},
		{"band-inf", JobSpec{Space: partition.Linear, Workers: 2, Objective: RobustObjective, RobustBand: math.Inf(1)}, 8},
	}
	for _, tc := range bad {
		if err := tc.spec.Validate(tc.n); err == nil {
			t.Errorf("%s: invalid spec accepted", tc.name)
		}
	}
}

// The headline invariant: MPQ over any worker count returns a plan with
// the same cost as the serial optimizer, in both plan spaces.
func TestMPQEqualsSerialAllWorkerCounts(t *testing.T) {
	cases := []struct {
		space partition.Space
		n     int
		ms    []int
	}{
		{partition.Linear, 8, []int{1, 2, 4, 8, 16}},
		{partition.Bushy, 7, []int{1, 2, 4}},
	}
	for _, c := range cases {
		for seed := int64(0); seed < 5; seed++ {
			q := gen(t, c.n, workload.Star, seed)
			serial, err := RunWorkerContext(context.Background(), q, JobSpec{Space: c.space, Workers: 1}, 0)
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range c.ms {
				ans, err := OptimizeContext(context.Background(), q, JobSpec{Space: c.space, Workers: m})
				if err != nil {
					t.Fatal(err)
				}
				if !approx(ans.Best.Cost, serial.Plans[0].Cost) {
					t.Fatalf("%v n=%d m=%d seed=%d: MPQ %g != serial %g",
						c.space, c.n, m, seed, ans.Best.Cost, serial.Plans[0].Cost)
				}
			}
		}
	}
}

func TestMPQMultiObjectiveExactMatchesSerialFrontier(t *testing.T) {
	for seed := int64(0); seed < 3; seed++ {
		q := gen(t, 7, workload.Star, seed)
		serial, err := RunWorkerContext(context.Background(), q, JobSpec{Space: partition.Linear, Workers: 1, Objective: MultiObjective, Alpha: 1}, 0)
		if err != nil {
			t.Fatal(err)
		}
		want := mo.ExactFrontier(serial.Plans)
		for _, m := range []int{2, 8} {
			ans, err := OptimizeContext(context.Background(), q, JobSpec{
				Space: partition.Linear, Workers: m,
				Objective: MultiObjective, Alpha: 1,
			})
			if err != nil {
				t.Fatal(err)
			}
			if !mo.IsFrontier(ans.Frontier) {
				t.Fatalf("m=%d: merged frontier contains dominated plans", m)
			}
			if len(ans.Frontier) != len(want) {
				t.Fatalf("m=%d seed=%d: frontier size %d, serial %d", m, seed, len(ans.Frontier), len(want))
			}
			for i := range want {
				gv, wv := mo.VecOf(ans.Frontier[i]), mo.VecOf(want[i])
				if !approx(gv.Time, wv.Time) || !approx(gv.Buffer, wv.Buffer) {
					t.Fatalf("m=%d: frontier[%d] = %v want %v", m, i, gv, wv)
				}
			}
		}
	}
}

func TestMPQMultiObjectiveAlphaCoverage(t *testing.T) {
	q := gen(t, 7, workload.Star, 11)
	serial, err := RunWorkerContext(context.Background(), q, JobSpec{Space: partition.Linear, Workers: 1, Objective: MultiObjective, Alpha: 1}, 0)
	if err != nil {
		t.Fatal(err)
	}
	exact := mo.ExactFrontier(serial.Plans)
	for _, alpha := range []float64{1.01, 1.25, 2, 10} {
		ans, err := OptimizeContext(context.Background(), q, JobSpec{
			Space: partition.Linear, Workers: 4,
			Objective: MultiObjective, Alpha: alpha,
		})
		if err != nil {
			t.Fatal(err)
		}
		// Per-insertion α-pruning stacks across DP levels: the formal
		// bound is α^(levels). Verify the measured coverage respects it.
		levels := float64(q.N())
		bound := math.Pow(alpha, levels)
		covErr := mo.CoverageError(ans.Frontier, exact)
		if covErr > bound+eps {
			t.Fatalf("alpha=%g: coverage error %g exceeds bound %g", alpha, covErr, bound)
		}
	}
}

func TestAnswerAccounting(t *testing.T) {
	q := gen(t, 10, workload.Star, 1)
	m := 8
	ans, err := OptimizeContext(context.Background(), q, JobSpec{Space: partition.Linear, Workers: m})
	if err != nil {
		t.Fatal(err)
	}
	if len(ans.PerWorker) != m {
		t.Fatalf("PerWorker = %d entries", len(ans.PerWorker))
	}
	var sumSets uint64
	for i, w := range ans.PerWorker {
		if w.PartID != i {
			t.Fatalf("PerWorker not ordered: %v", ans.PerWorker)
		}
		if w.Stats.SetsProcessed == 0 || w.Plans == 0 {
			t.Fatalf("worker %d reported no work: %+v", i, w)
		}
		sumSets += w.Stats.SetsProcessed
		if w.Stats.WorkUnits() > ans.MaxWorkerStats.WorkUnits() {
			t.Fatal("MaxWorkerStats not the max")
		}
	}
	if ans.Stats.SetsProcessed != sumSets {
		t.Fatal("aggregate stats mismatch")
	}
	if ans.MaxWorkerElapsed > ans.Elapsed {
		t.Fatal("worker elapsed exceeds master elapsed")
	}
	if ans.Frontier != nil {
		t.Fatal("single-objective answer has a frontier")
	}
}

// Skew-freedom (the paper's equal-partition-size claim): per-worker set
// counts are identical across workers.
func TestPartitionsAreSkewFree(t *testing.T) {
	q := gen(t, 12, workload.Star, 3)
	for _, tc := range []struct {
		space partition.Space
		m     int
	}{{partition.Linear, 16}, {partition.Bushy, 8}} {
		ans, err := OptimizeContext(context.Background(), q, JobSpec{Space: tc.space, Workers: tc.m})
		if err != nil {
			t.Fatal(err)
		}
		first := ans.PerWorker[0].Stats.SetsProcessed
		for _, w := range ans.PerWorker[1:] {
			if w.Stats.SetsProcessed != first {
				t.Fatalf("%v m=%d: worker %d processed %d sets, worker 0 processed %d",
					tc.space, tc.m, w.PartID, w.Stats.SetsProcessed, first)
			}
		}
	}
}

func TestOptimizeRejectsInvalid(t *testing.T) {
	q := gen(t, 8, workload.Star, 0)
	if _, err := OptimizeContext(context.Background(), q, JobSpec{Space: partition.Linear, Workers: 3}); err == nil {
		t.Error("non-power-of-two worker count accepted")
	}
	if _, err := OptimizeContext(context.Background(), q, JobSpec{Space: partition.Bushy, Workers: 8}); err == nil {
		t.Error("too many bushy workers accepted for n=8 (max 4)")
	}
	bad := query.MustNew([]query.Table{{Cardinality: 1}, {Cardinality: 1}})
	bad.Preds = append(bad.Preds, query.Predicate{Left: 0, Right: 1, Selectivity: 7})
	if _, err := OptimizeContext(context.Background(), bad, JobSpec{Space: partition.Linear, Workers: 1}); err == nil {
		t.Error("invalid query accepted")
	}
}

func TestRunWorkerRespectsPartition(t *testing.T) {
	q := gen(t, 6, workload.Chain, 2)
	spec := JobSpec{Space: partition.Linear, Workers: 8}
	for partID := 0; partID < 8; partID++ {
		res, err := RunWorkerContext(context.Background(), q, spec, partID)
		if err != nil {
			t.Fatal(err)
		}
		cs, _ := partition.ForPartition(partition.Linear, 6, partID, 8)
		order := res.Plans[0].JoinOrder()
		pos := make(map[int]int, len(order))
		for i, tbl := range order {
			pos[tbl] = i
		}
		for _, c := range cs.List {
			if pos[c.X] > pos[c.Y] {
				t.Fatalf("partition %d: join order %v violates %v", partID, order, c)
			}
		}
	}
}

func TestInterestingOrdersNeverHurt(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		q := gen(t, 8, workload.Chain, seed)
		blind, err := OptimizeContext(context.Background(), q, JobSpec{Space: partition.Linear, Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		aware, err := OptimizeContext(context.Background(), q, JobSpec{Space: partition.Linear, Workers: 4, InterestingOrders: true})
		if err != nil {
			t.Fatal(err)
		}
		if aware.Best.Cost > blind.Best.Cost+eps {
			t.Fatalf("seed=%d: order-aware %g worse than order-blind %g", seed, aware.Best.Cost, blind.Best.Cost)
		}
	}
}

func BenchmarkMPQLinear14Workers8(b *testing.B) {
	q := gen(b, 14, workload.Star, 0)
	spec := JobSpec{Space: partition.Linear, Workers: 8}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := OptimizeContext(context.Background(), q, spec); err != nil {
			b.Fatal(err)
		}
	}
}
