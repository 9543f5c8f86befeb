package dp_test

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"

	"mpq/internal/dp"
	"mpq/internal/partition"
	"mpq/internal/wire"
	"mpq/internal/workload"
)

// A level shared by w workers on one memo finds what one worker finds:
// at w ∈ {1, 2, 3}, and at w = 3 with helpers that Options.Release lets
// go mid-run, in both spaces, under every rule with interesting orders
// on and off, on every partition of m ∈ {1, 2}, the root plans have the
// same wire fingerprints and the runs the same plan.Stats — MemoEntries
// included, which the workers' counters must sum. Outside
// -short, the recorded work of testdata/exact_stats.txt holds at w = 2
// too (a minute under -race).
func TestWideLevelsAreExact(t *testing.T) {
	rules := []struct {
		name string
		pr   dp.Pruner
	}{{"single", dp.SingleBest{}}, {"orderaware", dp.OrderAware{}}, {"pareto", dp.Pareto{Alpha: 2}}}
	var helperSets uint64
	for _, space := range []partition.Space{partition.Linear, partition.Bushy} {
		n := 10
		if space == partition.Bushy {
			n = 8
		}
		for si, shape := range []workload.Shape{workload.Star, workload.Chain, workload.Cycle} {
			q := workload.MustGenerate(workload.NewParams(n, shape), int64(39+si))
			for _, m := range []int{1, 2} {
				for part := range m {
					cs, err := partition.ForPartition(space, n, part, m)
					if err != nil {
						t.Fatal(err)
					}
					for _, r := range rules {
						for _, orders := range []bool{false, true} {
							where := fmt.Sprintf("%v-%v-%d partition %d/%d %s orders=%v", shape, space, n, part, m, r.name, orders)
							var want *dp.Result
							for w := 1; w <= 4; w++ {
								opts := dp.Options{Pruner: r.pr, InterestingOrders: orders}
								if w == 4 { // w = 3, each helper let go from the run's fourth ask on
									var asks atomic.Int32
									opts.Release = func() bool { return asks.Add(1) > 3 }
								}
								eng, res := runPartition(t, q, cs, opts, min(w, 3))
								helperSets += eng.HelperSets()
								if want == nil {
									want = res
									continue
								}
								if res.Stats != want.Stats {
									t.Fatalf("%s at w=%d: stats %+v, at w=1 %+v", where, w, res.Stats, want.Stats)
								}
								if len(res.Plans) != len(want.Plans) {
									t.Fatalf("%s at w=%d: %d root plans, at w=1 %d", where, w, len(res.Plans), len(want.Plans))
								}
								for i, p := range res.Plans {
									if got, exp := wire.PlanFingerprint(p), wire.PlanFingerprint(want.Plans[i]); got != exp {
										t.Fatalf("%s at w=%d: root plan %d fingerprint %s, at w=1 %s", where, w, i, got, exp)
									}
								}
							}
						}
					}
				}
			}
		}
	}
	// One core runs a helper only once the engine's worker waits at the
	// barrier, with every task claimed; on more, helpers must have worked.
	if runtime.GOMAXPROCS(0) > 1 && helperSets == 0 {
		t.Fatal("no helper treated a set: the widths were never exercised")
	}
	t.Logf("helpers treated %d sets", helperSets)
	if !testing.Short() {
		checkRecordedWork(t, 2)
	}
}
