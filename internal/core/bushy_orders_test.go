package core

import (
	"context"
	"testing"

	"mpq/internal/brute"
	"mpq/internal/dp"
	"mpq/internal/partition"
	"mpq/internal/workload"
)

// Bushy MPQ with interesting orders against the exhaustive oracle: the
// most feature-complete configuration must still tile the plan space.
func TestBushyOrdersMPQMatchesBruteForce(t *testing.T) {
	for seed := int64(0); seed < 3; seed++ {
		q := workload.MustGenerate(workload.NewParams(5, workload.Chain), seed)
		want := brute.BestCost(q, partition.Bushy, brute.Options{InterestingOrders: true})
		for _, m := range []int{1, 2} {
			ans, err := OptimizeContext(context.Background(), q, JobSpec{Space: partition.Bushy, Workers: m, InterestingOrders: true})
			if err != nil {
				t.Fatal(err)
			}
			if !approx(ans.Best.Cost, want) {
				t.Fatalf("seed=%d m=%d: MPQ %g != brute force %g", seed, m, ans.Best.Cost, want)
			}
		}
	}
}

// Multi-objective bushy MPQ equals the serial multi-objective DP.
func TestBushyMultiObjectiveEqualsSerial(t *testing.T) {
	q := workload.MustGenerate(workload.NewParams(7, workload.Star), 4)
	spec := JobSpec{Space: partition.Bushy, Workers: 4, Objective: MultiObjective, Alpha: 1}
	ans, err := OptimizeContext(context.Background(), q, spec)
	if err != nil {
		t.Fatal(err)
	}
	serialSpec := spec
	serialSpec.Workers = 1
	ref, err := OptimizeContext(context.Background(), q, serialSpec)
	if err != nil {
		t.Fatal(err)
	}
	if len(ans.Frontier) != len(ref.Frontier) {
		t.Fatalf("frontier %d != serial %d", len(ans.Frontier), len(ref.Frontier))
	}
	for i := range ref.Frontier {
		if !approx(ans.Frontier[i].Cost, ref.Frontier[i].Cost) ||
			!approx(ans.Frontier[i].Buffer, ref.Frontier[i].Buffer) {
			t.Fatalf("frontier[%d] differs", i)
		}
	}
}

// The work-limit abort propagates cleanly through the worker entry point.
func TestWorkerRespectsWorkLimit(t *testing.T) {
	q := workload.MustGenerate(workload.NewParams(10, workload.Star), 0)
	spec := JobSpec{Space: partition.Linear, Workers: 1}
	opts := spec.DPOptions()
	opts.MaxWorkUnits = 10
	cs := partition.Unconstrained(partition.Linear, 10)
	if _, err := dp.RunContext(context.Background(), q, cs, opts); err == nil {
		t.Fatal("work limit not enforced")
	}
}
