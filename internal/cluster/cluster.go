// Package cluster simulates MPQ on a shared-nothing cluster.
//
// The paper evaluates on 100 nodes running Spark on Yarn (§6.1) — a
// testbed we substitute with a deterministic simulator that preserves the
// behaviours the evaluation measures:
//
//   - Network bytes are exact: every master↔worker message is serialized
//     by internal/wire and its real length is accounted.
//   - Virtual time follows the cluster cost structure the paper
//     describes: per-message latency, link bandwidth, per-task assignment
//     (executor setup) overhead, and per-worker compute derived from the
//     DP's deterministic work meter — which the paper shows is
//     proportional to running time and skew-free.
//
// The simulator runs the real optimizer (workers decode their request
// bytes and run the full constrained DP), so results are bit-identical
// to the in-process engine; only the clock is virtual. Every run goes
// through one event-driven schedule (sched.go) that steps the TCP
// master's own policy core, internal/sched: the simulated master assigns,
// retries, gives up and speculates exactly as netrun.Master does under
// the same options (Faults.Policy).
package cluster

import (
	"cmp"
	"context"
	"fmt"
	"time"

	"mpq/internal/core"
	"mpq/internal/query"
	"mpq/internal/sched"
	"mpq/internal/wire"
)

// Model parameterizes the simulated cluster.
type Model struct {
	// Latency is the one-way delay of a message between two nodes.
	Latency time.Duration
	// Bandwidth is the link throughput in bytes per second.
	Bandwidth float64
	// TaskSetup is the per-task launch overhead paid on the executing
	// worker (Spark-style task scheduling and JVM dispatch); workers pay
	// it in parallel.
	TaskSetup time.Duration
	// DispatchPerTask is the master-side serial cost of creating and
	// enqueuing one task — the fine-grained-management overhead the
	// paper's §2 identifies as the master's bottleneck for SMA.
	DispatchPerTask time.Duration
	// NsPerWorkUnit converts one DP work unit (set processed, split
	// tried, or plan generated) into nanoseconds of worker compute.
	NsPerWorkUnit float64
	// FinalPrunePerPlan is the master-side cost of comparing one
	// returned plan during FinalPrune.
	FinalPrunePerPlan time.Duration
	// Nodes is the size of the simulated node pool; zero means one node
	// per partition. The partitions are shared out over the pool exactly
	// as the TCP master does (internal/sched): round-robin, one request
	// in flight per node.
	Nodes int
}

// Default returns the model used by the experiment harness: 1 ms
// latency, 100 MB/s links, 100 ms task launch (Spark-like), 200 µs
// master-side dispatch per task, 2 µs per work unit. The compute rate is
// calibrated so the paper-scale queries (Linear-20/24) take on the order
// of a minute on one worker — the "optimization takes minutes on a
// single node" regime in which the paper reports its speedups.
func Default() Model {
	return Model{
		Latency:           time.Millisecond,
		Bandwidth:         100e6,
		TaskSetup:         100 * time.Millisecond,
		DispatchPerTask:   200 * time.Microsecond,
		NsPerWorkUnit:     2000,
		FinalPrunePerPlan: 200 * time.Nanosecond,
	}
}

// Validate reports whether the model is usable.
func (m Model) Validate() error {
	if m.Latency < 0 || m.Bandwidth <= 0 || m.TaskSetup < 0 || m.DispatchPerTask < 0 ||
		m.NsPerWorkUnit < 0 || m.FinalPrunePerPlan < 0 {
		return fmt.Errorf("cluster: invalid model %+v", m)
	}
	if m.Nodes < 0 {
		return fmt.Errorf("cluster: negative node count %d", m.Nodes)
	}
	return nil
}

// compute converts work units into virtual compute time.
func (m Model) compute(units uint64) time.Duration {
	return time.Duration(float64(units) * m.NsPerWorkUnit)
}

// MPQTime evaluates the fault-free schedule on this cluster model
// without running any optimizer: reqBytes[i] and respBytes[i] are
// partition i's request and response sizes, units[i] its compute work.
// It returns the master-observed total time (excluding FinalPrune, which
// the caller adds per returned plan) and the busiest node's compute
// time. The master NIC serializes sends and receives, making the
// master's share linear in the worker count (Theorem 5). It panics on a
// model Run would reject.
func (m Model) MPQTime(reqBytes, respBytes []int, units []uint64) (total, maxWorker time.Duration) {
	in := simInput{reqBytes: reqBytes, respBytes: respBytes, units: units}
	out, err := m.schedule(in, Faults{})
	if err != nil {
		panic(err)
	}
	return out.total, out.maxWorker
}

// Faults is the simulator's counterpart of a TCP deployment's bad day:
// the script of what goes wrong (Dead, Stalled, StallFactor) and the
// policy the simulated master answers it with — the same sched.Config a
// netrun.Master takes, so the two can be held against each other under
// one value.
//
// One divergence is deliberately left (ROADMAP item 4): the TCP master's
// Timeout fires on any attempt that outlives it, a live but slow worker
// included; the simulator's fires only on a dead node's silence, and a
// stalled node is waited for however long it takes.
type Faults struct {
	// Dead lists virtual nodes that crash after receiving a request and
	// never answer. With Model.Nodes zero, partition i starts on node i.
	// At least one node must survive, and the simulated master has the
	// real master's attempt budget: a partition that lands on dead nodes
	// Policy.MaxAttempts times fails the run with a *sched.BudgetError.
	Dead []int
	// Stalled lists nodes that compute StallFactor× slower than the
	// model's rate — the straggler script.
	Stalled []int
	// StallFactor is the stalled nodes' compute slowdown. Zero means
	// DefaultStallFactor; values below 1 are an error.
	StallFactor float64
	// Policy is the simulated master's policy; sched.Config documents its
	// fields. Timeout is the virtual time after a request's arrival at
	// which the master declares an unanswered node dead (zero means
	// DefaultDetectTimeout); nil Weights mean round-robin. Under
	// Speculate the burned work of race losers is recorded in
	// Metrics.WastedWork.
	Policy sched.Config
}

// DefaultDetectTimeout is the virtual failure-detection timeout used
// when Faults.Policy.Timeout is zero.
const DefaultDetectTimeout = 10 * time.Second

// Validate checks the fault script and the policy against m nodes.
func (f Faults) Validate(m int) error {
	seen := make(map[int]bool, len(f.Dead))
	for _, d := range f.Dead {
		if d < 0 || d >= m {
			return fmt.Errorf("cluster: dead worker %d out of range [0,%d)", d, m)
		}
		if seen[d] {
			return fmt.Errorf("cluster: worker %d listed dead twice", d)
		}
		seen[d] = true
	}
	if len(seen) >= m {
		return fmt.Errorf("cluster: all %d workers dead, nothing can recover", m)
	}
	stalledSeen := make(map[int]bool, len(f.Stalled))
	for _, s := range f.Stalled {
		if s < 0 || s >= m {
			return fmt.Errorf("cluster: stalled worker %d out of range [0,%d)", s, m)
		}
		if stalledSeen[s] {
			return fmt.Errorf("cluster: worker %d listed stalled twice", s)
		}
		if seen[s] {
			return fmt.Errorf("cluster: worker %d both dead and stalled", s)
		}
		stalledSeen[s] = true
	}
	if f.StallFactor != 0 && f.StallFactor < 1 {
		return fmt.Errorf("cluster: stall factor %g below 1", f.StallFactor)
	}
	if err := f.Policy.Validate(m); err != nil {
		return fmt.Errorf("cluster: %w", err)
	}
	return nil
}

// runWorker is the worker entry point every engine shares; a variable so
// a test can count how many partitions are resident at a time.
var runWorker = core.RunWorkerContext

// Metrics is the simulator's measurement record — one row of the paper's
// figures. It is an alias of core.ClusterMetrics so engine-agnostic
// answers can carry it without importing this package.
type Metrics = core.ClusterMetrics

// Run simulates Algorithm 1: the master serializes (query, partition
// ID, m) for each worker; workers decode their request bytes, run the
// real constrained DP, and serialize their partition-optimal plans back;
// the master decodes and gathers (core.Gather). One round, no
// worker↔worker traffic.
//
// Under a fault script, dead nodes receive their requests, crash, and
// never answer; the master detects each death Policy.Timeout after the
// request arrived and re-dispatches the partition as the TCP master
// would, within the same attempt budget. The chosen plans are
// bit-identical to the failure-free run — partitions are disjoint and
// workers stateless — while the answer's Cluster record (VirtualTime,
// traffic, Redispatched) exposes the recovery overhead.
//
// Answer.Elapsed is the real wall-clock time of the simulation;
// MaxWorkerElapsed and the per-worker Elapsed values are virtual compute
// times under the model. Every virtual worker's dynamic program checks
// ctx, and the run returns an error wrapping ctx's cause once all
// workers have stopped.
func Run(ctx context.Context, model Model, q *query.Query, spec core.JobSpec, faults Faults) (*core.Answer, error) {
	wallStart := time.Now()
	if err := model.Validate(); err != nil {
		return nil, err
	}
	if err := (core.Job{Query: q, Spec: spec}).Prepare(); err != nil {
		return nil, err
	}
	if err := faults.Validate(cmp.Or(model.Nodes, spec.Workers)); err != nil {
		return nil, err
	}
	m := spec.Workers

	// Every partition crosses the wire format both ways: the master
	// encodes its request, the worker decodes it and runs the real DP,
	// encodes its plans, and the master decodes them. Virtual time uses
	// work units, so how many partitions this machine runs at a time
	// (the runtime slots) moves only the wall clock.
	in := simInput{reqBytes: make([]int, m), respBytes: make([]int, m), units: make([]uint64, m)}
	parts, err := core.RunPartitions(ctx, m, func(ctx context.Context, partID int) (core.PartResult, error) {
		req := wire.EncodeJobRequest(&wire.JobRequest{Spec: spec, PartID: partID, Query: q})
		decoded, err := wire.DecodeJobRequest(req)
		if err != nil {
			return core.PartResult{}, err
		}
		res, err := runWorker(ctx, decoded.Query, decoded.Spec, decoded.PartID)
		if err != nil {
			return core.PartResult{}, err
		}
		rb := wire.EncodeJobResponse(&wire.JobResponse{Plans: res.Plans, Stats: res.Stats})
		back, err := wire.DecodeJobResponse(rb)
		if err != nil {
			return core.PartResult{}, err
		}
		in.reqBytes[partID], in.respBytes[partID] = len(req), len(rb)
		in.units[partID] = back.Stats.WorkUnits()
		return core.PartResult{Plans: back.Plans, Stats: back.Stats, Elapsed: model.compute(in.units[partID])}, nil
	})
	if err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}
	var planCount int
	for _, p := range parts {
		planCount += len(p.Plans)
	}
	// The schedule accounts time and traffic (clones, cancels and
	// re-dispatches included) for the requests the policy core issued.
	sim, err := model.schedule(in, faults)
	if err != nil {
		return nil, err
	}
	met := Metrics{
		Rounds:      1,
		Bytes:       sim.bytes,
		Messages:    sim.messages,
		VirtualTime: sim.total + time.Duration(planCount)*model.FinalPrunePerPlan,
		Counters:    sim.counters,
		WastedWork:  sim.wasted,
	}
	if met.Redispatched > 0 {
		met.Rounds = 2 // a re-dispatch adds one extra communication round
	}
	if len(faults.Dead) > 0 || len(faults.Stalled) > 0 {
		clean, err := model.schedule(in, Faults{Policy: faults.Policy})
		if err != nil {
			return nil, err
		}
		met.RecoveryOverhead = sim.total - clean.total
	}

	ans, err := core.Gather(spec, parts)
	if err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}
	ans.MaxWorkerElapsed = sim.maxWorker
	ans.Cluster = &met
	ans.Elapsed = time.Since(wallStart)
	return ans, nil
}
