package dp

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"mpq/internal/bitset"
	"mpq/internal/partition"
	"mpq/internal/plan"
	"mpq/internal/workload"
)

// planKey renders everything a wire fingerprint would capture: tree
// shape, algorithms, predicates and the scalar annotations.
func planKey(p *plan.Node) string {
	return fmt.Sprintf("%s|card=%b|cost=%b|buf=%b|ord=%d", p, p.Card, p.Cost, p.Buffer, p.Order)
}

// requireSameResult fails the test unless got and want hold the same
// plans, bit for bit, found with the same work.
func requireSameResult(t *testing.T, got, want *Result) {
	t.Helper()
	if got.Stats != want.Stats {
		t.Fatalf("stats differ:\ngot  %+v\nwant %+v", got.Stats, want.Stats)
	}
	if len(got.Plans) != len(want.Plans) {
		t.Fatalf("plan count %d != %d", len(got.Plans), len(want.Plans))
	}
	for i := range got.Plans {
		if g, w := planKey(got.Plans[i]), planKey(want.Plans[i]); g != w {
			t.Fatalf("plan %d differs:\ngot  %s\nwant %s", i, g, w)
		}
	}
}

// A run on a long-reused Runtime must be bit-identical to a run on a
// fresh one — same plans, same scalars, same work counters — when the
// shared Runtime has served queries of different sizes and spaces, so
// its memo carries stale capacity and its arena recycled slabs. (The
// name predates the removal of the heap-allocating path.)
func TestArenaOnOffBitIdentical(t *testing.T) {
	rt := NewRuntime()
	cases := []struct {
		n     int
		shape workload.Shape
		space partition.Space
		opts  Options
	}{
		{11, workload.Star, partition.Linear, Options{}}, // big first: leaves stale capacity behind
		{7, workload.Chain, partition.Bushy, Options{}},  // smaller, different space, stale memo
		{8, workload.Cycle, partition.Linear, Options{InterestingOrders: true}},
		{7, workload.Clique, partition.Bushy, Options{}},
		{9, workload.Snowflake, partition.Linear, Options{}},
	}
	for _, tc := range cases {
		t.Run(fmt.Sprintf("%v-%v-n%d", tc.shape, tc.space, tc.n), func(t *testing.T) {
			q := genQuery(t, tc.n, tc.shape, 3)
			cs := partition.Unconstrained(tc.space, tc.n)

			fresh := tc.opts
			fresh.Runtime = NewRuntime()
			want, err := run(q, cs, fresh)
			if err != nil {
				t.Fatal(err)
			}

			on := tc.opts
			on.Runtime = rt // shared and reused across all cases
			got, err := run(q, cs, on)
			if err != nil {
				t.Fatal(err)
			}

			requireSameResult(t, got, want)
		})
	}
}

// A pooled Runtime's memo array keeps the entries of every earlier run,
// and the memory it keeps for helpers their plans; no later run may see
// either. Jobs of different size, space, partition and width w share one
// Runtime — large, small, large again; the same partition again under
// another pruning rule; runs that a work limit aborts half way, which
// leave slots empty, and a full run of the same partition right after
// one; wide runs between narrow ones, on more helpers than before — and
// each returns what a fresh Runtime returns at w = 1, bit for bit,
// MemoEntries included.
func TestRuntimeReuseNeverReadsAnEarlierRun(t *testing.T) {
	shared := NewRuntime()
	for i, tc := range []struct {
		n       int
		shape   workload.Shape
		space   partition.Space
		part, m int
		opts    Options
		aborted bool
		w       int
	}{
		{12, workload.Chain, partition.Linear, 0, 1, Options{}, false, 1},
		{12, workload.Chain, partition.Linear, 0, 1, Options{Pruner: Pareto{Alpha: 1}}, false, 1},
		{6, workload.Star, partition.Bushy, 1, 2, Options{}, false, 1},
		{9, workload.Chain, partition.Bushy, 5, 8, Options{}, false, 1},
		{9, workload.Chain, partition.Bushy, 5, 8, Options{InterestingOrders: true}, false, 1},
		{11, workload.Cycle, partition.Linear, 3, 4, Options{MaxWorkUnits: 2000}, true, 1},
		{11, workload.Cycle, partition.Linear, 3, 4, Options{}, false, 1},
		{5, workload.Clique, partition.Linear, 2, 4, Options{}, false, 1},
		{12, workload.Star, partition.Linear, 0, 1, Options{InterestingOrders: true}, false, 1},
		{10, workload.Cycle, partition.Bushy, 0, 1, Options{MaxWorkUnits: 5000}, true, 1},
		{10, workload.Star, partition.Linear, 1, 2, Options{Pruner: Pareto{Alpha: 1}}, false, 1},
		{7, workload.Chain, partition.Bushy, 0, 1, Options{InterestingOrders: true, Pruner: Pareto{Alpha: 2}}, false, 1},
		{11, workload.Cycle, partition.Linear, 3, 4, Options{InterestingOrders: true}, false, 1},
		{13, workload.Chain, partition.Linear, 0, 1, Options{}, false, 2},
		{8, workload.Star, partition.Bushy, 1, 2, Options{}, false, 1},
		{10, workload.Cycle, partition.Bushy, 0, 1, Options{Pruner: Pareto{Alpha: 2}}, false, 3},
		{12, workload.Star, partition.Linear, 1, 2, Options{MaxWorkUnits: 3000}, true, 2},
		{12, workload.Star, partition.Linear, 1, 2, Options{}, false, 2},
	} {
		name := fmt.Sprintf("%d-%v-%v-n%d-m%d", i, tc.shape, tc.space, tc.n, tc.m)
		if tc.w > 1 {
			name += fmt.Sprintf("-w%d", tc.w)
		}
		t.Run(name, func(t *testing.T) {
			q := genQuery(t, tc.n, tc.shape, 5)
			cs, err := partition.ForPartition(tc.space, tc.n, tc.part, tc.m)
			if err != nil {
				t.Fatal(err)
			}
			fresh, pooled := tc.opts, tc.opts
			fresh.Runtime, pooled.Runtime = NewRuntime(), shared
			pooled.Helpers = tc.w - 1
			want, wantErr := run(q, cs, fresh)
			got, gotErr := run(q, cs, pooled)
			if tc.aborted {
				if !errors.Is(wantErr, ErrWorkLimit) || !errors.Is(gotErr, ErrWorkLimit) {
					t.Fatalf("errors %v / %v, want the work limit on both", wantErr, gotErr)
				}
				return
			}
			if wantErr != nil || gotErr != nil {
				t.Fatal(wantErr, gotErr)
			}
			requireSameResult(t, got, want)
		})
	}
}

// Every rule builds each survivor once, straight into the memo's arena:
// after a run on a fresh Runtime the arena holds exactly the memo's
// plans, scans included — no pruned candidate and no evicted record
// was ever built.
func TestSingleBestBuildsEachSurvivorOnce(t *testing.T) {
	for _, tc := range []struct {
		n       int
		space   partition.Space
		part, m int
	}{{10, partition.Linear, 0, 1}, {9, partition.Bushy, 2, 4}} {
		t.Run(fmt.Sprintf("%v-n%d-m%d", tc.space, tc.n, tc.m), func(t *testing.T) {
			q := genQuery(t, tc.n, workload.Cycle, 2)
			cs, err := partition.ForPartition(tc.space, tc.n, tc.part, tc.m)
			if err != nil {
				t.Fatal(err)
			}
			for _, opts := range []Options{
				{},
				{InterestingOrders: true},
				{Pruner: Pareto{Alpha: 1}},
				{InterestingOrders: true, Pruner: Pareto{Alpha: 2}},
			} {
				rt := NewRuntime()
				opts.Runtime = rt
				eng, err := NewEngine(q, cs, opts)
				if err != nil {
					t.Fatal(err)
				}
				plans := q.N()
				for k := 2; k <= q.N(); k++ {
					if err := eng.Level(context.Background(), k, func(u bitset.Set, _ uint64) bool {
						plans += len(plansOf(eng, u))
						return true
					}); err != nil {
						t.Fatal(err)
					}
				}
				res, err := eng.Finish()
				if err != nil {
					t.Fatal(err)
				}
				if res.Stats.PlansKept <= uint64(plans) {
					t.Fatalf("%#v: no record was ever replaced or evicted; the check would be vacuous", opts.Pruner)
				}
				if got := rt.arena.Allocated(); got != plans {
					t.Errorf("%#v: arena holds %d nodes for %d memo plans", opts.Pruner, got, plans)
				}
			}
		})
	}
}

// A query may have 63 tables; a dynamic program over it cannot have a
// memo. NewEngine says so with a typed error instead of handing make a
// length it panics on.
func TestMemoTooLarge(t *testing.T) {
	for _, tc := range []struct {
		n     int
		space partition.Space
		m     int
	}{{48, partition.Linear, 1}, {63, partition.Linear, 1}, {63, partition.Bushy, 1}, {63, partition.Linear, 1 << 20}} {
		q := genQuery(t, tc.n, workload.Chain, 1)
		cs, err := partition.ForPartition(tc.space, tc.n, tc.m-1, tc.m)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := NewEngine(q, cs, Options{}); !errors.Is(err, ErrMemoTooLarge) {
			t.Errorf("%v n=%d m=%d: NewEngine returned %v, want ErrMemoTooLarge", tc.space, tc.n, tc.m, err)
		}
		if _, err := run(q, cs, Options{}); !errors.Is(err, ErrMemoTooLarge) {
			t.Errorf("%v n=%d m=%d: Run returned %v, want ErrMemoTooLarge", tc.space, tc.n, tc.m, err)
		}
	}
}

// Finished results must not reference runtime memory: recycling the
// runtime for another (different) query must leave earlier plans
// untouched.
func TestResultSurvivesRuntimeRecycling(t *testing.T) {
	rt := NewRuntime()
	q1 := genQuery(t, 9, workload.Star, 1)
	res, err := run(q1, partition.Unconstrained(partition.Linear, 9), Options{Runtime: rt})
	if err != nil {
		t.Fatal(err)
	}
	want := planKey(res.Plans[0])

	// Recycle the runtime with other queries, overwriting every slab.
	for seed := int64(0); seed < 3; seed++ {
		q2 := genQuery(t, 10, workload.Clique, seed)
		if _, err := run(q2, partition.Unconstrained(partition.Bushy, 10), Options{Runtime: rt}); err != nil {
			t.Fatal(err)
		}
	}

	if got := planKey(res.Plans[0]); got != want {
		t.Fatalf("earlier result mutated by runtime recycling:\nbefore %s\nafter  %s", want, got)
	}
	if err := res.Plans[0].Validate(q1, Options{}.withDefaults().Model); err != nil {
		t.Fatalf("recycled-over plan fails validation: %v", err)
	}
}

// A reused runtime brings repeated runs to a near-zero-allocation
// steady state: bookkeeping and the cloned root plans only — nothing
// proportional to the number of sets, splits or survivors.
func TestRuntimeReuseSteadyStateAllocs(t *testing.T) {
	for _, tc := range []struct {
		name  string
		space partition.Space
		opts  Options
	}{
		{"Linear-SingleBest", partition.Linear, Options{}},
		{"Bushy-SingleBest", partition.Bushy, Options{}},
		{"Linear-OrderAware", partition.Linear, Options{InterestingOrders: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			q := genQuery(t, 10, workload.Star, 0)
			cs := partition.Unconstrained(tc.space, 10)
			rt := NewRuntime()
			opts := tc.opts
			opts.Runtime = rt
			var plans int
			run := func() {
				res, err := run(q, cs, opts)
				if err != nil {
					t.Fatal(err)
				}
				plans = len(res.Plans)
			}
			run() // warm: slabs and memo sized by the first run
			allocs := testing.AllocsPerRun(10, run)
			// Budget: engine/worker/result structs, enumerator, splitter,
			// predicate buffer, and the root frontier's escape from the
			// arena — one clone (2n−1 nodes) per retained root plan.
			// Nothing may scale with the number of sets, splits or
			// interior survivors (hundreds to thousands here before the
			// runtime existed).
			budget := float64(60 + plans*(2*10-1))
			if allocs > budget {
				t.Errorf("steady-state run allocates %.0f times (budget %.0f, %d root plans)", allocs, budget, plans)
			}
		})
	}
}
