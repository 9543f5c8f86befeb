package cluster

import (
	"context"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"mpq/internal/core"
	"mpq/internal/dp"
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

// Per-node CPU capacities shape the schedule: doubling every node's CPU
// halves compute, and a pool with one fast node beats an all-slow pool.
func TestMultiResourceCPUShapesSchedule(t *testing.T) {
	q := gen(t, 10, 11)
	spec := core.JobSpec{Space: partition.Linear, Workers: 8}
	model := Default()
	model.Nodes = 2
	model.Resources = []NodeResources{{CPU: 1}, {CPU: 1}}
	base, err := Run(context.Background(), model, q, spec, Faults{})
	if err != nil {
		t.Fatal(err)
	}
	fast := model
	fast.Resources = []NodeResources{{CPU: 4}, {CPU: 4}}
	quick, err := Run(context.Background(), fast, q, spec, Faults{})
	if err != nil {
		t.Fatal(err)
	}
	if quick.Cluster.VirtualTime >= base.Cluster.VirtualTime {
		t.Fatalf("4x CPUs did not shorten the schedule: %v >= %v",
			quick.Cluster.VirtualTime, base.Cluster.VirtualTime)
	}
	if bf, qf := wire.PlanFingerprint(base.Best), wire.PlanFingerprint(quick.Best); bf != qf {
		t.Fatalf("resource model changed the plan: %s != %s", qf, bf)
	}
}

// A node whose memory cannot hold a partition's memo spills and slows
// down; the schedule reflects it, the plan does not.
func TestMultiResourceMemorySpill(t *testing.T) {
	q := gen(t, 10, 13)
	spec := core.JobSpec{Space: partition.Linear, Workers: 4}
	model := Default()
	model.Nodes = 2
	model.Resources = []NodeResources{{CPU: 1}, {CPU: 1}}
	roomy, err := Run(context.Background(), model, q, spec, Faults{})
	if err != nil {
		t.Fatal(err)
	}
	tight := model
	tight.Resources = []NodeResources{{CPU: 1, MemoryBytes: 256}, {CPU: 1, MemoryBytes: 256}}
	spilled, err := Run(context.Background(), tight, q, spec, Faults{})
	if err != nil {
		t.Fatal(err)
	}
	if spilled.Cluster.VirtualTime <= roomy.Cluster.VirtualTime {
		t.Fatalf("spill cost no time: %v <= %v", spilled.Cluster.VirtualTime, roomy.Cluster.VirtualTime)
	}
	if rf, sf := wire.PlanFingerprint(roomy.Best), wire.PlanFingerprint(spilled.Best); rf != sf {
		t.Fatalf("spill changed the plan: %s != %s", sf, rf)
	}
}

// The spill model measures a partition's footprint in the DP's real
// entry size: a node that holds exactly MemoEntries × dp.EntryBytes runs
// at full speed, one byte less and it slows down.
func TestMemorySpillBoundary(t *testing.T) {
	in := simInput{reqBytes: []int{300}, respBytes: []int{200}, units: []uint64{1e9}, memo: []uint64{1000}}
	run := func(memory uint64) time.Duration {
		model := Default()
		model.Resources = []NodeResources{{CPU: 1, MemoryBytes: memory}}
		out, err := model.schedule(in, Faults{})
		if err != nil {
			t.Fatal(err)
		}
		return out.total
	}
	unlimited, fits, spills := run(0), run(1000*dp.EntryBytes), run(1000*dp.EntryBytes-1)
	if fits != unlimited {
		t.Fatalf("a memo that exactly fits slowed the node: %v != %v", fits, unlimited)
	}
	if spills <= fits {
		t.Fatalf("one byte short of the memo cost no time: %v <= %v", spills, fits)
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

// Resource slices must match the node pool, and fault scripts must be
// internally consistent.
func TestAdaptiveValidation(t *testing.T) {
	q := gen(t, 8, 1)
	spec := core.JobSpec{Space: partition.Linear, Workers: 4}
	model := Default()
	model.Nodes = 3
	model.Resources = []NodeResources{{CPU: 1}, {CPU: 1}} // 2 entries, 3 nodes
	if _, err := Run(context.Background(), model, q, spec, Faults{}); err == nil {
		t.Fatal("mismatched resource slice accepted")
	}
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
// the unbounded fan-out produced for this job.
func TestSimulatorBoundsResidentMemos(t *testing.T) {
	var running, peak atomic.Int32
	orig := runWorker
	defer func() { runWorker = orig }()
	runWorker = func(ctx context.Context, q *query.Query, spec core.JobSpec, partID int) (*dp.Result, error) {
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
	if met.VirtualTime != 152547950 || met.Bytes != 19280 || met.Messages != 32 || ans.Stats.MemoEntries != 1299 {
		t.Errorf("VirtualTime %d, Bytes %d, Messages %d, MemoEntries %d; want 152547950, 19280, 32, 1299",
			met.VirtualTime, met.Bytes, met.Messages, ans.Stats.MemoEntries)
	}
}
