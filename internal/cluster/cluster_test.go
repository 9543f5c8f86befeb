package cluster

import (
	"context"
	"errors"
	"math"
	"slices"
	"testing"
	"time"

	"mpq/internal/catalog"
	"mpq/internal/core"
	"mpq/internal/dp"
	"mpq/internal/partition"
	"mpq/internal/query"
	"mpq/internal/sched"
	"mpq/internal/wire"
	"mpq/internal/workload"
)

func gen(t testing.TB, n int, seed int64) *query.Query {
	t.Helper()
	return workload.MustGenerate(workload.NewParams(n, workload.Star), seed)
}

func approx(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

func TestModelValidate(t *testing.T) {
	if err := Default().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := Default()
	bad.Bandwidth = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("zero bandwidth accepted")
	}
	bad = Default()
	bad.Latency = -time.Second
	if err := bad.Validate(); err == nil {
		t.Fatal("negative latency accepted")
	}
}

// The simulator must return exactly the same plan cost as the in-process
// engine: only the clock is virtual.
func TestSimulationMatchesInProcess(t *testing.T) {
	for seed := int64(0); seed < 3; seed++ {
		q := gen(t, 8, seed)
		for _, m := range []int{1, 4, 16} {
			spec := core.JobSpec{Space: partition.Linear, Workers: m}
			sim, err := Run(context.Background(), Default(), q, spec, Faults{})
			if err != nil {
				t.Fatal(err)
			}
			local, err := core.OptimizeContext(context.Background(), q, spec)
			if err != nil {
				t.Fatal(err)
			}
			if !approx(sim.Best.Cost, local.Best.Cost) {
				t.Fatalf("m=%d seed=%d: sim %g != local %g", m, seed, sim.Best.Cost, local.Best.Cost)
			}
		}
	}
}

// The equivalence must hold on every workload family: all join-graph
// shapes (including the snowflake fan-out), correlated selectivities,
// and the fixed TPC-style schema queries.
func TestSimulationMatchesInProcessOnAllWorkloads(t *testing.T) {
	var queries []*query.Query
	for _, shape := range workload.Shapes {
		params := workload.NewParams(9, shape)
		queries = append(queries, workload.MustGenerate(params, 7))
		params.Correlation = 0.8
		queries = append(queries, workload.MustGenerate(params, 7))
	}
	for _, name := range catalog.SchemaNames() {
		sch, err := catalog.BuiltinSchema(name)
		if err != nil {
			t.Fatal(err)
		}
		_, q, err := workload.FromSchema(sch, 1)
		if err != nil {
			t.Fatal(err)
		}
		queries = append(queries, q)
	}
	for i, q := range queries {
		spec := core.JobSpec{Space: partition.Linear, Workers: 4}
		sim, err := Run(context.Background(), Default(), q, spec, Faults{})
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		local, err := core.OptimizeContext(context.Background(), q, spec)
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		if wire.PlanFingerprint(sim.Best) != wire.PlanFingerprint(local.Best) {
			t.Fatalf("query %d: simulated and in-process plans differ", i)
		}
	}
}

func TestNetworkBytesLinearInWorkers(t *testing.T) {
	q := gen(t, 12, 1)
	var bytesPerWorker []float64
	for _, m := range []int{2, 4, 8, 16} {
		res, err := Run(context.Background(), Default(), q, core.JobSpec{Space: partition.Linear, Workers: m}, Faults{})
		if err != nil {
			t.Fatal(err)
		}
		bytesPerWorker = append(bytesPerWorker, float64(res.Cluster.Bytes)/float64(m))
	}
	// Theorem 1: traffic is O(m · (bq + bp)) — per-worker bytes are flat.
	for i := 1; i < len(bytesPerWorker); i++ {
		ratio := bytesPerWorker[i] / bytesPerWorker[0]
		if ratio > 1.1 || ratio < 0.9 {
			t.Fatalf("per-worker bytes not flat: %v", bytesPerWorker)
		}
	}
}

func TestOneRoundTwoMessagesPerWorker(t *testing.T) {
	q := gen(t, 8, 0)
	res, err := Run(context.Background(), Default(), q, core.JobSpec{Space: partition.Linear, Workers: 8}, Faults{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cluster.Rounds != 1 {
		t.Fatalf("rounds = %d", res.Cluster.Rounds)
	}
	if res.Cluster.Messages != 16 {
		t.Fatalf("messages = %d want 16", res.Cluster.Messages)
	}
}

// W-Time (max per-worker compute) must decrease monotonically in the
// worker count — the paper's central scaling claim.
func TestWorkerTimeDecreasesWithParallelism(t *testing.T) {
	q := gen(t, 14, 2)
	var prev time.Duration = 1<<62 - 1
	for _, m := range []int{1, 2, 4, 8, 16, 32, 64, 128} {
		res, err := Run(context.Background(), Default(), q, core.JobSpec{Space: partition.Linear, Workers: m}, Faults{})
		if err != nil {
			t.Fatal(err)
		}
		if res.MaxWorkerElapsed >= prev {
			t.Fatalf("m=%d: W-time %v did not decrease from %v", m, res.MaxWorkerElapsed, prev)
		}
		prev = res.MaxWorkerElapsed
	}
}

// Theorem 6: per-worker work shrinks by 3/4 per doubling (linear space).
func TestWorkReductionMatchesTheory(t *testing.T) {
	q := gen(t, 14, 3)
	model := Default()
	var prevMax uint64
	for i, m := range []int{1, 2, 4, 8, 16} {
		res, err := Run(context.Background(), model, q, core.JobSpec{Space: partition.Linear, Workers: m}, Faults{})
		if err != nil {
			t.Fatal(err)
		}
		// Recover the slowest worker's units from its virtual compute time.
		maxUnits := uint64(float64(res.MaxWorkerElapsed.Nanoseconds()) / model.NsPerWorkUnit)
		if i > 0 {
			ratio := float64(maxUnits) / float64(prevMax)
			if ratio < 0.70 || ratio > 0.80 {
				t.Fatalf("m=%d: work ratio %.3f outside [0.70, 0.80]", m, ratio)
			}
		}
		prevMax = maxUnits
	}
}

func TestMultiObjectiveSimulation(t *testing.T) {
	q := gen(t, 8, 4)
	spec := core.JobSpec{
		Space: partition.Linear, Workers: 4,
		Objective: core.MultiObjective, Alpha: 1,
	}
	sim, err := Run(context.Background(), Default(), q, spec, Faults{})
	if err != nil {
		t.Fatal(err)
	}
	if len(sim.Frontier) == 0 {
		t.Fatal("no frontier")
	}
	local, err := core.OptimizeContext(context.Background(), q, spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(sim.Frontier) != len(local.Frontier) {
		t.Fatalf("sim frontier %d != local %d", len(sim.Frontier), len(local.Frontier))
	}
	// MO responses carry whole frontiers, so traffic exceeds the
	// single-objective run's.
	single, err := Run(context.Background(), Default(), q, core.JobSpec{Space: partition.Linear, Workers: 4}, Faults{})
	if err != nil {
		t.Fatal(err)
	}
	if sim.Cluster.Bytes <= single.Cluster.Bytes {
		t.Fatalf("MO bytes %d not above single-objective %d", sim.Cluster.Bytes, single.Cluster.Bytes)
	}
}

func TestMemoryMetricMatchesDP(t *testing.T) {
	q := gen(t, 10, 5)
	res, err := Run(context.Background(), Default(), q, core.JobSpec{Space: partition.Linear, Workers: 4}, Faults{})
	if err != nil {
		t.Fatal(err)
	}
	// Worker memo size equals the DP's count for one partition.
	cs, _ := partition.ForPartition(partition.Linear, 10, 0, 4)
	ref, err := dp.RunContext(context.Background(), q, cs, dp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.MemoEntries != ref.Stats.MemoEntries {
		t.Fatalf("memory metric %d != DP %d", res.Stats.MemoEntries, ref.Stats.MemoEntries)
	}
}

func TestFaultsValidate(t *testing.T) {
	cases := []struct {
		name   string
		faults Faults
		m      int
		ok     bool
	}{
		{"no faults", Faults{}, 4, true},
		{"one death", Faults{Dead: []int{2}}, 4, true},
		{"minority dead", Faults{Dead: []int{0, 1, 2}}, 4, true},
		{"out of range", Faults{Dead: []int{4}}, 4, false},
		{"negative index", Faults{Dead: []int{-1}}, 4, false},
		{"duplicate", Faults{Dead: []int{1, 1}}, 4, false},
		{"all dead", Faults{Dead: []int{0, 1, 2, 3}}, 4, false},
		{"negative detect", Faults{Policy: sched.Config{Timeout: -time.Second}}, 4, false},
	}
	for _, c := range cases {
		err := c.faults.Validate(c.m)
		if (err == nil) != c.ok {
			t.Errorf("%s: Validate = %v, want ok=%v", c.name, err, c.ok)
		}
	}
}

// Dead workers change the schedule, never the answer: the recovered run
// must return bit-identical plans while exposing the overhead in the
// virtual-time and traffic metrics.
func TestFaultedSimulationBitIdentical(t *testing.T) {
	q := gen(t, 10, 7)
	spec := core.JobSpec{Space: partition.Linear, Workers: 8}
	clean, err := Run(context.Background(), Default(), q, spec, Faults{})
	if err != nil {
		t.Fatal(err)
	}
	for _, deadSet := range [][]int{{0}, {3, 5}, {0, 1}, {0, 2, 4, 6}} {
		faults := Faults{Dead: deadSet, Policy: sched.Config{Timeout: 5 * time.Second}}
		res, err := Run(context.Background(), Default(), q, spec, faults)
		if err != nil {
			t.Fatal(err)
		}
		if wire.PlanFingerprint(res.Best) != wire.PlanFingerprint(clean.Best) {
			t.Fatalf("dead=%v: recovered plan differs", deadSet)
		}
		// A retry can land on another dead node (the master cannot know),
		// so every death costs at least one re-dispatch.
		if res.Cluster.Redispatched < len(deadSet) {
			t.Fatalf("dead=%v: Redispatched = %d", deadSet, res.Cluster.Redispatched)
		}
		if res.Cluster.Rounds != 2 {
			t.Fatalf("dead=%v: rounds = %d, want 2", deadSet, res.Cluster.Rounds)
		}
		if res.Cluster.VirtualTime <= clean.Cluster.VirtualTime {
			t.Fatalf("dead=%v: recovery is free: %v <= %v",
				deadSet, res.Cluster.VirtualTime, clean.Cluster.VirtualTime)
		}
		if got, want := res.Cluster.RecoveryOverhead, res.Cluster.VirtualTime-clean.Cluster.VirtualTime; got != want {
			t.Fatalf("dead=%v: RecoveryOverhead = %v, want %v", deadSet, got, want)
		}
		if res.Cluster.Bytes <= clean.Cluster.Bytes {
			t.Fatalf("dead=%v: no re-dispatch traffic accounted", deadSet)
		}
		if want := 2*spec.Workers + res.Cluster.Redispatched; res.Cluster.Messages != want {
			t.Fatalf("dead=%v: messages = %d, want %d", deadSet, res.Cluster.Messages, want)
		}
	}
}

// The survivors absorb the dead workers' partitions, so the slowest
// worker's busy time grows with the death count — the recovery-overhead
// curve a Fig-style experiment would plot.
func TestRecoveryOverheadGrowsWithDeaths(t *testing.T) {
	q := gen(t, 12, 2)
	spec := core.JobSpec{Space: partition.Linear, Workers: 8}
	var baseline, prev time.Duration = -1, -1
	// Three ring-adjacent deaths would exhaust partition 0's attempt
	// budget (TestOneScheduleForEveryLayout), so the largest script
	// spreads its four deaths out.
	for _, dead := range [][]int{{}, {0}, {0, 1}, {0, 2, 4, 6}} {
		res, err := Run(context.Background(), Default(), q, spec, Faults{Dead: dead})
		if err != nil {
			t.Fatal(err)
		}
		wtime := res.MaxWorkerElapsed
		if len(dead) == 0 {
			baseline = wtime
		} else if wtime <= baseline {
			t.Fatalf("dead=%v: W-time %v not above failure-free %v", dead, wtime, baseline)
		}
		// Symmetric partitions can tie across scripts, but recovery never
		// gets cheaper with more deaths.
		if wtime < prev {
			t.Fatalf("dead=%v: W-time %v fell from %v", dead, wtime, prev)
		}
		prev = wtime
	}
}

// MPQTime is the fault-free entry of the one schedule Run steps: fed a
// run's own message sizes and work units it returns that run's
// VirtualTime less the FinalPrune term, and its MaxWorkerElapsed.
func TestFaultScheduleReducesToMPQTime(t *testing.T) {
	model := Default()
	q := gen(t, 10, 7)
	m := 8
	spec := core.JobSpec{Space: partition.Linear, Workers: m}
	res, err := Run(context.Background(), model, q, spec, Faults{})
	if err != nil {
		t.Fatal(err)
	}
	reqs, resps, units := make([]int, m), make([]int, m), make([]uint64, m)
	plans := 0
	for i := 0; i < m; i++ {
		part, err := core.RunWorkerContext(context.Background(), q, spec, i)
		if err != nil {
			t.Fatal(err)
		}
		reqs[i] = len(wire.EncodeJobRequest(&wire.JobRequest{Spec: spec, PartID: i, Query: q}))
		resps[i] = len(wire.EncodeJobResponse(&wire.JobResponse{Plans: part.Plans, Stats: part.Stats}))
		units[i] = part.Stats.WorkUnits()
		plans += len(part.Plans)
	}
	gotTotal, gotMax := model.MPQTime(reqs, resps, units)
	wantTotal := res.Cluster.VirtualTime - time.Duration(plans)*model.FinalPrunePerPlan
	if gotTotal != wantTotal || gotMax != res.MaxWorkerElapsed {
		t.Fatalf("MPQTime (%v, %v) != fault-free Run (%v, %v)", gotTotal, gotMax, wantTotal, res.MaxWorkerElapsed)
	}
}

// The layout is a value, not a path: a pool of one node per partition
// gives the same record whether it is written Nodes: 0 or Nodes: m,
// with and without deaths. And the simulated master gives the TCP
// master's answer to three ring-adjacent deaths — partition 0 lands on
// nodes 0, 1 and 2 and exhausts its attempt budget — not a recovery.
func TestOneScheduleForEveryLayout(t *testing.T) {
	ctx := context.Background()
	for _, c := range []struct {
		n, m  int
		space partition.Space
	}{{10, 8, partition.Linear}, {12, 16, partition.Linear}, {9, 4, partition.Bushy}, {12, 64, partition.Linear}} {
		q := gen(t, c.n, 7)
		spec := core.JobSpec{Space: c.space, Workers: c.m}
		pool := Default()
		pool.Nodes = c.m
		for _, dead := range [][]int{nil, {0}, {3, 5}, {0, 1}} {
			if len(dead) > 0 && slices.Max(dead) >= c.m {
				continue // the script names a node this pool does not have
			}
			faults := Faults{Dead: dead}
			implicit, err := Run(ctx, Default(), q, spec, faults)
			if err != nil {
				t.Fatalf("%v-%d m=%d dead=%v: %v", c.space, c.n, c.m, dead, err)
			}
			explicit, err := Run(ctx, pool, q, spec, faults)
			if err != nil {
				t.Fatalf("%v-%d m=%d dead=%v, Nodes=m: %v", c.space, c.n, c.m, dead, err)
			}
			if *implicit.Cluster != *explicit.Cluster {
				t.Fatalf("%v-%d m=%d dead=%v: Nodes 0 and Nodes m disagree:\n%+v\n%+v",
					c.space, c.n, c.m, dead, implicit.Cluster, explicit.Cluster)
			}
		}
	}
	_, err := Run(ctx, Default(), gen(t, 10, 7), core.JobSpec{Space: partition.Linear, Workers: 8}, Faults{Dead: []int{0, 1, 2}})
	var budget *sched.BudgetError
	if !errors.As(err, &budget) {
		t.Fatalf("dead 0,1,2 of 8: got %v, want the master's *sched.BudgetError", err)
	}
}

func TestRunMPQRejectsInvalid(t *testing.T) {
	q := gen(t, 8, 0)
	if _, err := Run(context.Background(), Model{}, q, core.JobSpec{Space: partition.Linear, Workers: 2}, Faults{}); err == nil {
		t.Fatal("invalid model accepted")
	}
	if _, err := Run(context.Background(), Default(), q, core.JobSpec{Space: partition.Linear, Workers: 3}, Faults{}); err == nil {
		t.Fatal("invalid worker count accepted")
	}
}

func TestVirtualTimeIncludesLatencyFloor(t *testing.T) {
	q := gen(t, 6, 0)
	model := Default()
	res, err := Run(context.Background(), model, q, core.JobSpec{Space: partition.Linear, Workers: 2}, Faults{})
	if err != nil {
		t.Fatal(err)
	}
	// At minimum: task setup + 2 latencies must be present.
	floor := model.TaskSetup + 2*model.Latency
	if res.Cluster.VirtualTime < floor {
		t.Fatalf("virtual time %v below floor %v", res.Cluster.VirtualTime, floor)
	}
}
