// Package sma implements the paper's competitor: the fine-grained
// approach to parallelizing dynamic-programming query optimization in
// the style of Han et al. [9, 10], adapted — as the paper's §6.1 does —
// to a shared-nothing cluster.
//
// SMA enumerates table sets in size order. In each round the master
// assigns the sets of the current cardinality to workers round-robin and
// must broadcast all memotable entries produced in the previous round to
// every worker, because workers share no memory and any worker may need
// any sub-plan. Workers compute optimal plans for their assigned sets and
// send the new entries back. This yields n-1 communication rounds,
// broadcast traffic that grows with both the query size (memo size is
// exponential in n) and the worker count, and per-round barriers — the
// structural reasons MPQ outperforms it by orders of magnitude in
// Figures 1 and 4.
//
// Plan generation and pruning reuse the exact DP engine of internal/dp,
// so SMA and MPQ always agree on the optimal plan; only the schedule and
// the communication pattern differ.
package sma

import (
	"context"
	"fmt"
	"time"

	"mpq/internal/bitset"
	"mpq/internal/cluster"
	"mpq/internal/core"
	"mpq/internal/dp"
	"mpq/internal/partition"
	"mpq/internal/plan"
	"mpq/internal/query"
)

// deltaEntryBytes is the size of one new memotable record shipped
// between master and workers: the table set plus a compact fixed-size
// plan record (operand sets are referenced by key, as a real
// shared-memotable implementation would do, rather than shipping whole
// subtrees). Layout per plan: set key (8) + kind/alg (1) + pred (4) +
// order (4) + card/cost/buffer (24) + left key (8) + right key (8).
const deltaEntryBytes = 57

// Run simulates SMA on the cluster described by model. spec.Workers may
// be any count ≥ 1 (SMA has no power-of-two restriction); spec.Space,
// Objective, Alpha and InterestingOrders mean the same as for MPQ. The
// measurement record is the answer's Cluster field. Each round is one
// dp.Engine.Level, which checks ctx when it starts and every 256 sets;
// once ctx ends, Run returns an error wrapping its cause.
func Run(ctx context.Context, model cluster.Model, q *query.Query, spec core.JobSpec) (*core.Answer, error) {
	if err := model.Validate(); err != nil {
		return nil, err
	}
	if err := q.Validate(); err != nil {
		return nil, err
	}
	if err := validateSpec(q, spec); err != nil {
		return nil, err
	}
	q.Freeze()
	n := q.N()
	m := spec.Workers

	// The shared memotable lives on the master; the DP engine below is
	// the canonical copy every worker's local replica mirrors.
	cs := partition.Unconstrained(spec.Space, n)
	eng, err := dp.NewEngine(q, cs, spec.DPOptions())
	if err != nil {
		return nil, err
	}

	met := cluster.Metrics{}
	// delta counts the plans of the memotable delta: in round 0, the
	// scan plans every worker needs.
	delta := 0
	count := func(*plan.Node) { delta++ }
	for t := 0; t < n; t++ {
		eng.ForEachPlan(bitset.Single(t), count)
	}

	var virtual time.Duration
	workerUnits := make([]uint64, m)
	// Each cardinality is one round: SMA runs the unconstrained space, so
	// every k from 2 to n has sets.
	for k := 2; k <= n; k++ {
		// The previous round's memotable delta, which the master
		// broadcasts with this round's tasks.
		deltaBytes := delta * deltaEntryBytes
		delta = 0
		clear(workerUnits)
		// Workers compute their sets, assigned round-robin. Each set is
		// processed once (all replicas are identical); its work is
		// attributed to its worker.
		sets := 0
		err := eng.Level(ctx, k, func(u bitset.Set, units uint64) bool {
			workerUnits[sets%m] += units
			sets++
			eng.ForEachPlan(u, count)
			return true
		})
		if err != nil {
			return nil, fmt.Errorf("sma: %w", err)
		}
		met.Rounds++
		// Master -> workers: fine-grained per-set tasks (the master pays
		// dispatch for every task it creates — its §2 bottleneck) plus
		// the previous round's delta, to everyone.
		taskHeader := 16
		var masterSendBusy time.Duration
		for w := 0; w < m; w++ {
			tasks := (sets + m - 1 - w) / m // j ≡ w (mod m), 0 ≤ j < sets
			msg := taskHeader + 8*tasks + deltaBytes
			met.Bytes += uint64(msg)
			met.Messages++
			masterSendBusy += time.Duration(tasks)*model.DispatchPerTask + transfer(model, msg)
		}

		// Workers -> master: the new entries each worker produced.
		// Attribute response bytes by assigned sets (round-robin).
		respTotal := delta * deltaEntryBytes
		var maxCompute time.Duration
		for w := 0; w < m; w++ {
			if c := compute(model, workerUnits[w]); c > maxCompute {
				maxCompute = c
			}
			met.Messages++
		}
		met.Bytes += uint64(respTotal + m*taskHeader)
		// Workers launch their round tasks in parallel (one TaskSetup per
		// round), compute, and return; the round is a barrier.
		virtual += masterSendBusy + model.Latency + model.TaskSetup + maxCompute +
			model.Latency + transfer(model, respTotal+m*taskHeader)
	}

	res, err := eng.Finish()
	if err != nil {
		return nil, err
	}
	met.VirtualTime = virtual + time.Duration(len(res.Plans))*model.FinalPrunePerPlan

	// The shared memotable is one result, not one per worker: the same
	// epilogue as MPQ's master, over a single part. Its memo entries are
	// every worker's (each holds a full replica — the paper's point about
	// SMA's memory footprint not shrinking with parallelism), and its
	// elapsed time is every worker's: they are barrier-synchronized every
	// round.
	ans, err := core.Gather(spec, []core.PartResult{{Plans: res.Plans, Stats: res.Stats, Elapsed: virtual}})
	if err != nil {
		return nil, fmt.Errorf("sma: %w", err)
	}
	ans.Cluster = &met
	return ans, nil
}

func validateSpec(q *query.Query, spec core.JobSpec) error {
	if !spec.Space.Valid() {
		return fmt.Errorf("sma: invalid plan space %d", int(spec.Space))
	}
	if spec.Workers < 1 {
		return fmt.Errorf("sma: worker count %d < 1", spec.Workers)
	}
	switch spec.Objective {
	case core.SingleObjective, core.MultiObjective:
	default:
		return fmt.Errorf("sma: invalid objective %d", int(spec.Objective))
	}
	if spec.Objective == core.MultiObjective && spec.Alpha != 0 && !(spec.Alpha >= 1) {
		return fmt.Errorf("sma: approximation factor α=%g must be ≥ 1", spec.Alpha)
	}
	return nil
}

func transfer(m cluster.Model, bytes int) time.Duration {
	return time.Duration(float64(bytes) / m.Bandwidth * float64(time.Second))
}

func compute(m cluster.Model, units uint64) time.Duration {
	return time.Duration(float64(units) * m.NsPerWorkUnit)
}
