package sma

import (
	"context"
	"errors"
	"math"
	"testing"
	"time"

	"mpq/internal/cluster"
	"mpq/internal/core"
	"mpq/internal/mo"
	"mpq/internal/partition"
	"mpq/internal/plan"
	"mpq/internal/query"
	"mpq/internal/workload"
)

func gen(t testing.TB, n int, seed int64) *query.Query {
	t.Helper()
	return workload.MustGenerate(workload.NewParams(n, workload.Star), seed)
}

func approx(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

// SMA and the serial DP must agree on the optimum: the schedulers differ,
// the algebra does not.
func TestSMAMatchesSerialDP(t *testing.T) {
	for _, space := range []partition.Space{partition.Linear, partition.Bushy} {
		n := 8
		if space == partition.Bushy {
			n = 7
		}
		for seed := int64(0); seed < 3; seed++ {
			q := gen(t, n, seed)
			serial, err := core.OptimizeContext(context.Background(), q, core.JobSpec{Space: space, Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range []int{1, 3, 8} {
				res, err := Run(context.Background(), cluster.Default(), q, core.JobSpec{Space: space, Workers: m})
				if err != nil {
					t.Fatal(err)
				}
				if !approx(res.Best.Cost, serial.Best.Cost) {
					t.Fatalf("%v n=%d m=%d: SMA %g != serial %g", space, n, m, res.Best.Cost, serial.Best.Cost)
				}
			}
		}
	}
}

func TestSMAMatchesMPQ(t *testing.T) {
	q := gen(t, 9, 5)
	spec := core.JobSpec{Space: partition.Linear, Workers: 8}
	smaRes, err := Run(context.Background(), cluster.Default(), q, spec)
	if err != nil {
		t.Fatal(err)
	}
	mpqRes, err := cluster.Run(context.Background(), cluster.Default(), q, spec, cluster.Faults{})
	if err != nil {
		t.Fatal(err)
	}
	if !approx(smaRes.Best.Cost, mpqRes.Best.Cost) {
		t.Fatalf("SMA %g != MPQ %g", smaRes.Best.Cost, mpqRes.Best.Cost)
	}
}

// The structural claim of Figure 1: SMA moves orders of magnitude more
// bytes than MPQ, and its traffic grows with the worker count.
func TestSMATrafficDwarfsMPQ(t *testing.T) {
	q := gen(t, 10, 1)
	for _, m := range []int{4, 16} {
		spec := core.JobSpec{Space: partition.Linear, Workers: m}
		smaRes, err := Run(context.Background(), cluster.Default(), q, spec)
		if err != nil {
			t.Fatal(err)
		}
		mpqRes, err := cluster.Run(context.Background(), cluster.Default(), q, spec, cluster.Faults{})
		if err != nil {
			t.Fatal(err)
		}
		if smaRes.Cluster.Bytes < 10*mpqRes.Cluster.Bytes {
			t.Fatalf("m=%d: SMA bytes %d not >> MPQ bytes %d", m, smaRes.Cluster.Bytes, mpqRes.Cluster.Bytes)
		}
	}
}

func TestSMATrafficGrowsWithWorkers(t *testing.T) {
	q := gen(t, 10, 2)
	var prev uint64
	for i, m := range []int{1, 2, 4, 8, 16} {
		res, err := Run(context.Background(), cluster.Default(), q, core.JobSpec{Space: partition.Linear, Workers: m})
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 && res.Cluster.Bytes <= prev {
			t.Fatalf("m=%d: bytes %d did not grow from %d", m, res.Cluster.Bytes, prev)
		}
		prev = res.Cluster.Bytes
	}
}

func TestSMARoundsAndMessages(t *testing.T) {
	q := gen(t, 8, 0)
	m := 4
	res, err := Run(context.Background(), cluster.Default(), q, core.JobSpec{Space: partition.Linear, Workers: m})
	if err != nil {
		t.Fatal(err)
	}
	// One round per join-result cardinality: 2..n.
	if res.Cluster.Rounds != 7 {
		t.Fatalf("rounds = %d want 7", res.Cluster.Rounds)
	}
	// Per round: m task/delta messages down + m responses up.
	if res.Cluster.Messages != res.Cluster.Rounds*2*m {
		t.Fatalf("messages = %d want %d", res.Cluster.Messages, res.Cluster.Rounds*2*m)
	}
	// Under interesting orders a set keeps a plan per order, and every
	// plan crosses the wire as one 57-byte delta entry: the bytes are
	// those the encoded broadcast of this fixed query measured.
	res, err = Run(context.Background(), cluster.Default(), q, core.JobSpec{Space: partition.Linear, Workers: m, InterestingOrders: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cluster.Bytes != 160819 {
		t.Fatalf("bytes with orders = %d want 160819", res.Cluster.Bytes)
	}
}

// SMA's memory metric does not shrink with parallelism (full replicas),
// in contrast to MPQ.
func TestSMAMemoryConstantInWorkers(t *testing.T) {
	q := gen(t, 9, 3)
	var first uint64
	for i, m := range []int{1, 4, 16} {
		res, err := Run(context.Background(), cluster.Default(), q, core.JobSpec{Space: partition.Linear, Workers: m})
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = res.Stats.MemoEntries
		} else if res.Stats.MemoEntries != first {
			t.Fatalf("m=%d: memo %d != %d", m, res.Stats.MemoEntries, first)
		}
	}
	if first != uint64(1<<9-1) {
		t.Fatalf("full memo = %d want %d", first, 1<<9-1)
	}
}

func TestSMAMultiObjective(t *testing.T) {
	q := gen(t, 7, 4)
	spec := core.JobSpec{
		Space: partition.Linear, Workers: 4,
		Objective: core.MultiObjective, Alpha: 1,
	}
	res, err := Run(context.Background(), cluster.Default(), q, spec)
	if err != nil {
		t.Fatal(err)
	}
	if !mo.IsFrontier(res.Frontier) {
		t.Fatal("SMA frontier contains dominated plans")
	}
	mpqRes, err := core.OptimizeContext(context.Background(), q, spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Frontier) != len(mpqRes.Frontier) {
		t.Fatalf("SMA frontier %d != MPQ frontier %d", len(res.Frontier), len(mpqRes.Frontier))
	}
}

func TestSMAValidation(t *testing.T) {
	q := gen(t, 6, 0)
	if _, err := Run(context.Background(), cluster.Default(), q, core.JobSpec{Space: partition.Linear, Workers: 0}); err == nil {
		t.Fatal("zero workers accepted")
	}
	if _, err := Run(context.Background(), cluster.Default(), q, core.JobSpec{Space: partition.Space(9), Workers: 2}); err == nil {
		t.Fatal("invalid space accepted")
	}
	if _, err := Run(context.Background(), cluster.Model{}, q, core.JobSpec{Space: partition.Linear, Workers: 2}); err == nil {
		t.Fatal("invalid model accepted")
	}
	if _, err := Run(context.Background(), cluster.Default(), q, core.JobSpec{
		Space: partition.Linear, Workers: 2, Objective: core.MultiObjective, Alpha: 0.2,
	}); err == nil {
		t.Fatal("alpha < 1 accepted")
	}
	if _, err := Run(context.Background(), cluster.Default(), q, core.JobSpec{
		Space: partition.Linear, Workers: 2, Objective: core.MultiObjective, Alpha: math.NaN(),
	}); err == nil {
		t.Fatal("alpha NaN accepted")
	}
	// Non-power-of-two worker counts are fine for SMA.
	if _, err := Run(context.Background(), cluster.Default(), q, core.JobSpec{Space: partition.Linear, Workers: 5}); err != nil {
		t.Fatalf("m=5 rejected: %v", err)
	}
}

// SMA's exact output on fixed Star queries: rounds, messages, broadcast
// bytes, virtual time and the DP counters, single objective and α = 10
// multi-objective. The other tests check only relative traffic; these
// pin the schedule itself, so a change to how Run drives the DP that
// moves a byte or a nanosecond shows here.
func TestRunExactOutput(t *testing.T) {
	for _, tc := range []struct {
		space    partition.Space
		n        int
		mo       bool
		m        int
		rounds   int
		messages int
		bytes    uint64
		virtual  time.Duration
		stats    plan.Stats
	}{
		{partition.Linear, 8, false, 1, 7, 14, 30757, 771447768, plan.Stats{SetsProcessed: 247, SplitsTried: 1016, PlansKept: 762, PlansPruned: 1853, MemoEntries: 255}},
		{partition.Linear, 8, false, 4, 7, 56, 74863, 766178830, plan.Stats{SetsProcessed: 247, SplitsTried: 1016, PlansKept: 762, PlansPruned: 1853, MemoEntries: 255}},
		{partition.Linear, 8, false, 16, 7, 224, 251287, 766587066, plan.Stats{SetsProcessed: 247, SplitsTried: 1016, PlansKept: 762, PlansPruned: 1853, MemoEntries: 255}},
		{partition.Linear, 8, true, 1, 7, 14, 70543, 778518030, plan.Stats{SetsProcessed: 247, SplitsTried: 1016, PlansKept: 884, PlansPruned: 5067, MemoEntries: 255}},
		{partition.Linear, 8, true, 4, 7, 56, 174157, 768974170, plan.Stats{SetsProcessed: 247, SplitsTried: 1016, PlansKept: 884, PlansPruned: 5067, MemoEntries: 255}},
		{partition.Linear, 8, true, 16, 7, 224, 588613, 770582730, plan.Stats{SetsProcessed: 247, SplitsTried: 1016, PlansKept: 884, PlansPruned: 5067, MemoEntries: 255}},
		{partition.Bushy, 9, false, 1, 8, 16, 61956, 1055203760, plan.Stats{SetsProcessed: 502, SplitsTried: 18660, PlansKept: 1989, PlansPruned: 47950, MemoEntries: 511}},
		{partition.Bushy, 9, false, 4, 8, 64, 149934, 957039540, plan.Stats{SetsProcessed: 502, SplitsTried: 18660, PlansKept: 1989, PlansPruned: 47950, MemoEntries: 511}},
		{partition.Bushy, 9, false, 16, 8, 256, 501846, 936498659, plan.Stats{SetsProcessed: 502, SplitsTried: 18660, PlansKept: 1989, PlansPruned: 47950, MemoEntries: 511}},
		{partition.Bushy, 9, true, 1, 8, 16, 193341, 1540538210, plan.Stats{SetsProcessed: 502, SplitsTried: 18660, PlansKept: 2628, PlansPruned: 289321, MemoEntries: 511}},
		{partition.Bushy, 9, true, 4, 8, 64, 478140, 1112162200, plan.Stats{SetsProcessed: 502, SplitsTried: 18660, PlansKept: 2628, PlansPruned: 289321, MemoEntries: 511}},
		{partition.Bushy, 9, true, 16, 8, 256, 1617336, 1014290148, plan.Stats{SetsProcessed: 502, SplitsTried: 18660, PlansKept: 2628, PlansPruned: 289321, MemoEntries: 511}},
	} {
		spec := core.JobSpec{Space: tc.space, Workers: tc.m}
		if tc.mo {
			spec.Objective, spec.Alpha = core.MultiObjective, 10
		}
		ans, err := Run(context.Background(), cluster.Default(), gen(t, tc.n, 1), spec)
		if err != nil {
			t.Fatal(err)
		}
		c := ans.Cluster
		if c.Rounds != tc.rounds || c.Messages != tc.messages || c.Bytes != tc.bytes || c.VirtualTime != tc.virtual || ans.Stats != tc.stats {
			t.Errorf("%v n=%d mo=%v m=%d: rounds %d, messages %d, bytes %d, virtual %d, stats %+v; want %d, %d, %d, %d, %+v",
				tc.space, tc.n, tc.mo, tc.m, c.Rounds, c.Messages, c.Bytes, int64(c.VirtualTime), ans.Stats,
				tc.rounds, tc.messages, tc.bytes, int64(tc.virtual), tc.stats)
		}
	}
}

// roundsCtx reports itself canceled from its (rounds+1)-th Err call on:
// Run asks once per cardinality round, so it ends after exactly that
// many rounds.
type roundsCtx struct {
	context.Context
	rounds int
}

func (c *roundsCtx) Err() error {
	if c.rounds == 0 {
		return context.Canceled
	}
	c.rounds--
	return nil
}

// Run stops at the next round boundary once its context ends — before
// the first round or in the middle of the sweep — with an error wrapping
// the cause and no answer.
func TestRunHonoursCancel(t *testing.T) {
	q := gen(t, 10, 3)
	spec := core.JobSpec{Space: partition.Linear, Workers: 4}
	before, cancel := context.WithCancel(context.Background())
	cancel()
	for name, ctx := range map[string]context.Context{
		"canceled before the call": before,
		"canceled after round 3":   &roundsCtx{Context: context.Background(), rounds: 3},
	} {
		ans, err := Run(ctx, cluster.Default(), q, spec)
		if !errors.Is(err, context.Canceled) || ans != nil {
			t.Errorf("%s: answer %v, error %v; want no answer and context.Canceled", name, ans, err)
		}
	}
	if _, err := Run(&roundsCtx{Context: context.Background(), rounds: q.N() - 1}, cluster.Default(), q, spec); err != nil {
		t.Errorf("a context that outlives the %d rounds: %v", q.N()-1, err)
	}
}
