package cluster

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"mpq/internal/core"
	"mpq/internal/partition"
	"mpq/internal/query"
	"mpq/internal/sched"
	"mpq/internal/wire"
)

// The size of the node pool must not change what is computed — only
// when. Fault-free, with a bounded node pool, the chosen plan is
// fingerprint-identical to the one-node-per-partition run.
func TestAdaptivePlanMatchesLegacy(t *testing.T) {
	q := gen(t, 10, 7)
	spec := core.JobSpec{Space: partition.Linear, Workers: 8}
	legacy, err := Run(context.Background(), Default(), q, spec, Faults{})
	if err != nil {
		t.Fatal(err)
	}
	model := Default()
	model.Nodes = 3
	adaptive, err := Run(context.Background(), model, q, spec, Faults{})
	if err != nil {
		t.Fatal(err)
	}
	if lf, af := wire.PlanFingerprint(legacy.Best), wire.PlanFingerprint(adaptive.Best); lf != af {
		t.Fatalf("adaptive plan diverged: %s != %s", af, lf)
	}
	if adaptive.Cluster.Speculations != 0 || adaptive.Cluster.WastedWork != 0 {
		t.Fatalf("fault-free adaptive run speculated: %+v", adaptive.Cluster)
	}
}

// The acceptance criterion of the adaptive scheduler: under a scripted
// stall, a speculative run completes in less than 60% of the
// non-speculative virtual wall-time, and the chosen plan stays
// fingerprint-identical to the fault-free run. Virtual time makes this
// fully deterministic.
func TestStallSpeculationBeatsWaitingDeterministically(t *testing.T) {
	q := gen(t, 12, 3)
	spec := core.JobSpec{Space: partition.Linear, Workers: 8}
	model := Default()
	model.Nodes = 4

	clean, err := Run(context.Background(), model, q, spec, Faults{})
	if err != nil {
		t.Fatal(err)
	}
	stall := Faults{Stalled: []int{0}, StallFactor: 50}
	slow, err := Run(context.Background(), model, q, spec, stall)
	if err != nil {
		t.Fatal(err)
	}
	stallSpec := stall
	stallSpec.Policy.Speculate = true
	fast, err := Run(context.Background(), model, q, spec, stallSpec)
	if err != nil {
		t.Fatal(err)
	}

	cf := wire.PlanFingerprint(clean.Best)
	for name, r := range map[string]*core.Answer{"stalled": slow, "speculative": fast} {
		if f := wire.PlanFingerprint(r.Best); f != cf {
			t.Fatalf("%s plan diverged from fault-free run: %s != %s", name, f, cf)
		}
	}
	if slow.Cluster.VirtualTime <= clean.Cluster.VirtualTime {
		t.Fatalf("stall had no effect: stalled %v <= clean %v", slow.Cluster.VirtualTime, clean.Cluster.VirtualTime)
	}
	if limit := slow.Cluster.VirtualTime * 6 / 10; fast.Cluster.VirtualTime >= limit {
		t.Fatalf("speculation too slow: %v, want < 60%% of %v (= %v)",
			fast.Cluster.VirtualTime, slow.Cluster.VirtualTime, limit)
	}
	if fast.Cluster.Speculations == 0 {
		t.Fatal("speculative run recorded no speculations")
	}
	if fast.Cluster.WastedWork == 0 {
		t.Fatal("speculative run recorded no wasted work — the canceled straggler burned compute")
	}
	if fast.Cluster.RecoveryOverhead <= 0 {
		t.Fatalf("speculative run under a stall should still report overhead, got %v", fast.Cluster.RecoveryOverhead)
	}

	// Determinism: the virtual schedule must replay bit for bit.
	again, err := Run(context.Background(), model, q, spec, stallSpec)
	if err != nil {
		t.Fatal(err)
	}
	if *again.Cluster != *fast.Cluster {
		t.Fatalf("speculative schedule not deterministic:\n first %+v\nsecond %+v", fast.Cluster, again.Cluster)
	}
}

// A dead node under the adaptive scheduler recovers through detection +
// re-dispatch, and speculation can even pre-empt the detector; either
// way the plan is unchanged.
func TestAdaptiveDeadNodeRecovers(t *testing.T) {
	q := gen(t, 10, 5)
	spec := core.JobSpec{Space: partition.Linear, Workers: 8}
	model := Default()
	model.Nodes = 3
	clean, err := Run(context.Background(), model, q, spec, Faults{})
	if err != nil {
		t.Fatal(err)
	}
	dead, err := Run(context.Background(), model, q, spec, Faults{Dead: []int{1}, Policy: sched.Config{Timeout: time.Second}})
	if err != nil {
		t.Fatal(err)
	}
	if cf, df := wire.PlanFingerprint(clean.Best), wire.PlanFingerprint(dead.Best); cf != df {
		t.Fatalf("dead-node plan diverged: %s != %s", df, cf)
	}
	if dead.Cluster.Redispatched == 0 {
		t.Fatal("dead node produced no re-dispatches")
	}
	if dead.Cluster.VirtualTime <= clean.Cluster.VirtualTime {
		t.Fatal("death and recovery cost no virtual time")
	}
}

// A dead node is excluded after its first failure and probed
// ReadmitAfter later; the simulated master reports those probes in the
// answer as the TCP master does. A dead node never answers its probe, so
// it is never readmitted, and the plan does not change.
func TestSimulatedProbesReachTheAnswer(t *testing.T) {
	q := gen(t, 10, 5)
	spec := core.JobSpec{Space: partition.Linear, Workers: 8}
	model := Default()
	model.Nodes = 2
	clean, err := Run(context.Background(), model, q, spec, Faults{})
	if err != nil {
		t.Fatal(err)
	}
	policy := sched.Config{Timeout: 100 * time.Millisecond, MaxWorkerFailures: 1, ReadmitAfter: 10 * time.Millisecond}
	ans, err := Run(context.Background(), model, q, spec, Faults{Dead: []int{0}, Policy: policy})
	if err != nil {
		t.Fatal(err)
	}
	if n := ans.Cluster.Counters; n.Probes < 1 || n.Readmitted != 0 || n.Redispatched < 1 {
		t.Fatalf("counters %+v, want probes, re-dispatches and no re-admission", n)
	}
	if cf, af := wire.PlanFingerprint(clean.Best), wire.PlanFingerprint(ans.Best); cf != af {
		t.Fatalf("probed run's plan diverged: %s != %s", af, cf)
	}
}

// Policy.Weights are the simulator's one source of unequal shares, as
// MasterOptions.Weights are the TCP master's: on two nodes weighted 3:1,
// node 0 serves six of eight partitions and node 1 two, the shares
// sched.Config gives the real master, and the plan does not move.
func TestPolicyWeightsShareThePartitions(t *testing.T) {
	q := gen(t, 10, 11)
	spec := core.JobSpec{Space: partition.Linear, Workers: 8}
	model := Default()
	model.Nodes = 2
	even, err := Run(context.Background(), model, q, spec, Faults{})
	if err != nil {
		t.Fatal(err)
	}
	weighted, err := Run(context.Background(), model, q, spec, Faults{Policy: sched.Config{Weights: []float64{3, 1}}})
	if err != nil {
		t.Fatal(err)
	}
	if ef, wf := wire.PlanFingerprint(even.Best), wire.PlanFingerprint(weighted.Best); ef != wf {
		t.Fatalf("weights changed the plan: %s != %s", wf, ef)
	}

	in := simInput{reqBytes: slices.Repeat([]int{500}, 8), respBytes: slices.Repeat([]int{300}, 8), units: slices.Repeat([]uint64{10000}, 8)}
	out, err := model.schedule(in, Faults{Policy: sched.Config{Weights: []float64{3, 1}}})
	if err != nil {
		t.Fatal(err)
	}
	served := make([]int, model.Nodes)
	for _, c := range out.copies {
		served[c.node]++
	}
	if served[0] != 6 || served[1] != 2 || len(out.copies) != 8 {
		t.Fatalf("nodes served %v in %d requests, want [6 2] in 8", served, len(out.copies))
	}
}

// The schedule is evaluated once per Table 1 cell, so its cost at the
// paper's worker counts matters: fault-free, one node per partition.
func BenchmarkSchedule(b *testing.B) {
	for _, m := range []int{8, 128, 256} {
		reqs, resps, units := make([]int, m), make([]int, m), make([]uint64, m)
		for i := range reqs {
			reqs[i], resps[i], units[i] = 500, 300, uint64(10000+i)
		}
		b.Run(fmt.Sprintf("m=%d", m), func(b *testing.B) {
			model := Default()
			for i := 0; i < b.N; i++ {
				benchSink, _ = model.MPQTime(reqs, resps, units)
			}
		})
	}
}

var benchSink time.Duration

// Fault scripts must be internally consistent.
func TestAdaptiveValidation(t *testing.T) {
	if err := (Faults{Stalled: []int{0}, StallFactor: 0.5}).Validate(4); err == nil {
		t.Fatal("stall factor below 1 accepted")
	}
	if err := (Faults{Dead: []int{1}, Stalled: []int{1}}).Validate(4); err == nil {
		t.Fatal("node both dead and stalled accepted")
	}
	if err := (Faults{Stalled: []int{9}}).Validate(4); err == nil {
		t.Fatal("out-of-range stalled node accepted")
	}
	if err := (Faults{Policy: sched.Config{Speculate: true, SpeculationMultiplier: 0.3}}).Validate(4); err == nil {
		t.Fatal("speculation multiplier below 1 accepted")
	}
}

// A Workers: 16 job keeps at most GOMAXPROCS memos resident — the
// simulator used to run all sixteen dynamic programs at once — and none
// of what it measures moves: virtual time is a function of work units,
// not of how this machine interleaved them. The pinned values are what
// the unbounded fan-out produced for this job, less the 11 bytes wire
// version 3 dropped from each of the 16 request/response pairs
// (19,280 − 16·11 bytes) and the virtual time those bytes took.
func TestSimulatorBoundsResidentMemos(t *testing.T) {
	var running, peak atomic.Int32
	orig := runWorker
	defer func() { runWorker = orig }()
	runWorker = func(ctx context.Context, q *query.Query, spec core.JobSpec, partID int) (core.PartResult, error) {
		now := running.Add(1)
		defer running.Add(-1)
		for old := peak.Load(); now > old && !peak.CompareAndSwap(old, now); old = peak.Load() {
		}
		return orig(ctx, q, spec, partID)
	}
	ans, err := Run(context.Background(), Default(), gen(t, 12, 7), core.JobSpec{Space: partition.Linear, Workers: 16}, Faults{})
	if err != nil {
		t.Fatal(err)
	}
	if got, limit := int(peak.Load()), runtime.GOMAXPROCS(0); got < 1 || got > limit {
		t.Fatalf("%d partitions resident at once, want at most GOMAXPROCS = %d", got, limit)
	}
	if got, want := wire.PlanFingerprint(ans.Best), "8eada7ed2634473c1d2427a856a43c935a494e14477d984a70e1a3d34e73c046"; got != want {
		t.Errorf("fingerprint %s, want %s", got, want)
	}
	met := ans.Cluster
	if met.VirtualTime != 152546580 || met.Bytes != 19104 || met.Messages != 32 || ans.Stats.MemoEntries != 1299 {
		t.Errorf("VirtualTime %d, Bytes %d, Messages %d, MemoEntries %d; want 152546580, 19104, 32, 1299",
			met.VirtualTime, met.Bytes, met.Messages, ans.Stats.MemoEntries)
	}
}
