package dp_test

import (
	"testing"

	"mpq/internal/bitset"
	"mpq/internal/cost"
	"mpq/internal/dp"
	"mpq/internal/partition"
	"mpq/internal/plan"
	"mpq/internal/query"
	"mpq/internal/workload"
)

func genQuery(n int, shape workload.Shape, seed int64) *query.Query {
	return workload.MustGenerate(workload.NewParams(n, shape), seed)
}

// Computing a candidate's scalars must not allocate either: together
// with admission this makes the whole pruned-candidate path free.
func TestJoinScalarsAllocFree(t *testing.T) {
	q := genQuery(4, workload.Star, 0)
	m := cost.Default()
	l, r := plan.Scan(m, q, 0), plan.Scan(m, q, 1)
	spec := plan.JoinSpec{Alg: cost.Hash, OutCard: 100, Pred: plan.NoPred, Order: query.NoOrder}
	var c, b float64
	if allocs := testing.AllocsPerRun(1000, func() { c, b = plan.JoinScalars(m, l, r, spec) }); allocs != 0 {
		t.Errorf("JoinScalars allocates %.1f times per call", allocs)
	}
	_, _ = c, b
}

// End-to-end allocation gate for the DP inner loop, on every rule and
// cost-model family: with a warm runtime, treating a join result
// allocates nothing at all — not per pruned candidate, not per kept
// record (the runtime's records slice), not per survivor (arena slabs),
// not for the memo entry (stored by value) or a spilled frontier (spill
// slabs).
func TestProcessSetPrunedCandidatesAllocFree(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts dp.Options
	}{
		{"SingleBest", dp.Options{}},
		{"OrderAware", dp.Options{InterestingOrders: true, Pruner: dp.OrderAware{}}},
		{"Pareto", dp.Options{Pruner: dp.Pareto{Alpha: 1}}},
		{"ParetoOrders", dp.Options{InterestingOrders: true, Pruner: dp.Pareto{Alpha: 2}}},
		{"Robust", dp.Options{Model: cost.Robust(4), Pruner: dp.Pareto{Alpha: 1}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			q := genQuery(12, workload.Star, 0)
			cs := partition.Unconstrained(partition.Linear, 12)
			eng, err := dp.NewEngine(q, cs, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			enum := cs.NewEnumerator()
			for k := 2; k < 12; k++ {
				enum.ForEachAdmissible(k, func(u bitset.Set) bool {
					eng.ProcessSet(u)
					return true
				})
			}
			// Re-processing the full set replaces its memo entry; the
			// sub-plans it combines are unchanged, so every run generates
			// the same candidates and keeps the same number of plans.
			all := q.All()
			before := eng.Stats()
			eng.ProcessSet(all)
			after := eng.Stats()
			kept := after.PlansKept - before.PlansKept
			pruned := after.PlansPruned - before.PlansPruned
			if pruned < 10 || kept < 2 {
				t.Fatalf("only %d pruned, %d kept candidates; measurement would be vacuous", pruned, kept)
			}
			// A slab of 1024 nodes or spill pointers is allocated once per
			// several hundred runs; AllocsPerRun's integer average absorbs
			// it, anything per candidate or per survivor does not.
			if allocs := testing.AllocsPerRun(100, func() { eng.ProcessSet(all) }); allocs != 0 {
				t.Fatalf("ProcessSet allocates %.1f times per run (kept=%d, pruned=%d)", allocs, kept, pruned)
			}
		})
	}
}
