// Package core implements MPQ, the paper's massively-parallel query
// optimization algorithm (§4.1, Algorithm 1): the master hands each
// worker the query plus a plan-space partition ID, every worker
// independently finds the optimal plan(s) inside its partition with the
// shared dynamic-programming engine, and the master compares the
// partition-optimal plans to obtain the global optimum. Exactly one task
// per worker, one round of communication, no shared state.
//
// This package provides the job specification shared by all execution
// engines, the worker entry point, and the in-process engine that runs
// workers as goroutines (the shared-nothing analogue on a single
// machine). The cluster simulator (internal/cluster) and the TCP runtime
// (internal/netrun) reuse the same worker entry point.
package core

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mpq/internal/cost"
	"mpq/internal/dp"
	"mpq/internal/mo"
	"mpq/internal/partition"
	"mpq/internal/plan"
	"mpq/internal/query"
)

// Objective selects between the paper's two experiment series.
type Objective int

const (
	// SingleObjective optimizes the time metric only (first series, §6.2).
	SingleObjective Objective = iota
	// MultiObjective approximates the Pareto frontier over (time, buffer)
	// with the α-pruning of [22, 23] (second series).
	MultiObjective
	// RobustObjective searches for the plan minimizing worst-case cost
	// over a selectivity-uncertainty band (JobSpec.RobustBand): the DP
	// runs the multi-objective machinery over (nominal cost, cost with
	// every selectivity inflated to the band's high endpoint) and Best
	// is the frontier member with the smallest worst-case cost. The
	// frontier itself — the nominal-vs-worst-case trade-off — is
	// returned like a multi-objective frontier.
	RobustObjective
)

// String names the objective mode.
func (o Objective) String() string {
	switch o {
	case SingleObjective:
		return "single-objective"
	case MultiObjective:
		return "multi-objective"
	case RobustObjective:
		return "robust"
	default:
		return fmt.Sprintf("Objective(%d)", int(o))
	}
}

// ParseObjective converts an objective name — "single", "multi" or
// "robust", ignoring case; the empty string means SingleObjective — to
// an Objective.
func ParseObjective(name string) (Objective, error) {
	switch strings.ToLower(name) {
	case "", "single":
		return SingleObjective, nil
	case "multi":
		return MultiObjective, nil
	case "robust":
		return RobustObjective, nil
	default:
		return 0, fmt.Errorf("unknown objective %q (want single, multi, or robust)", name)
	}
}

// HasFrontier reports whether answers for this objective carry a plan
// frontier beyond Best — true for the frontier-producing modes
// (MultiObjective and RobustObjective). Serving paths use this to
// decide whether Plans[1:] of a wire response is a frontier.
func (o Objective) HasFrontier() bool {
	return o == MultiObjective || o == RobustObjective
}

// DefaultRobustBand is the selectivity-uncertainty band a
// RobustObjective job assumes when JobSpec.RobustBand is zero: the
// worst case guards against every selectivity estimate being low by up
// to a factor of two (q-error 2).
const DefaultRobustBand = 2.0

// JobSpec is the complete, serializable description of one optimization
// job. The master sends (JobSpec, partition ID, query) to each worker;
// nothing else is needed, which is what keeps the protocol to one round.
type JobSpec struct {
	// Space selects the linear or bushy plan space.
	Space partition.Space
	// Workers is the number of plan-space partitions m (a power of two).
	Workers int
	// Objective selects single- or multi-objective pruning.
	Objective Objective
	// Alpha is the approximation factor α ≥ 1 of multi-objective and
	// robust pruning (ignored for single-objective jobs). Zero means
	// α = 1, the exact frontier — there is no other default; the paper's
	// experiments and the CLIs' -alpha flag use 10. α > 1 trades
	// frontier precision for speed.
	Alpha float64
	// RobustBand is the selectivity-uncertainty band for
	// RobustObjective jobs: the worst case inflates every predicate
	// selectivity by this factor (clamped to 1). Must be ≥ 1; zero
	// means DefaultRobustBand. Ignored by the other objectives.
	RobustBand float64
	// InterestingOrders enables sort-order tracking in the DP.
	InterestingOrders bool
	// CostModel overrides the cost model (zero value = cost.Default()).
	// Set cost.Parametric(spill) with MultiObjective for parametric
	// query optimization. Its second metric may not be cost.RobustCost:
	// robust search is RobustObjective with RobustBand, the one spelling
	// of the band.
	CostModel cost.Model
}

// Validate checks the spec against an n-table query.
func (s JobSpec) Validate(n int) error {
	if !s.Space.Valid() {
		return fmt.Errorf("core: invalid plan space %d", int(s.Space))
	}
	if _, err := partition.NumConstraints(s.Workers); err != nil {
		return err
	}
	if max := partition.MaxWorkers(s.Space, n); s.Workers > max {
		return fmt.Errorf("core: %d workers exceed the maximum of %d for %v space and %d tables",
			s.Workers, max, s.Space, n)
	}
	switch s.Objective {
	case SingleObjective, MultiObjective, RobustObjective:
	default:
		return fmt.Errorf("core: invalid objective %d", int(s.Objective))
	}
	// Written so that NaN fails: a NaN α would never prune a frontier.
	if s.Objective.HasFrontier() && s.Alpha != 0 && !(s.Alpha >= 1) {
		return fmt.Errorf("core: approximation factor α=%g must be ≥ 1", s.Alpha)
	}
	if s.Objective == RobustObjective {
		if s.RobustBand != 0 && (!(s.RobustBand >= 1) || math.IsInf(s.RobustBand, 1)) {
			return fmt.Errorf("core: robust band %g must be finite and ≥ 1 (0 = default %g)", s.RobustBand, DefaultRobustBand)
		}
		if s.CostModel.Second != cost.BufferFootprint {
			return fmt.Errorf("core: robust jobs derive their own second metric; CostModel.Second must be left at the default")
		}
	}
	if s.CostModel.Second == cost.RobustCost {
		return fmt.Errorf("core: CostModel.Second = RobustCost is not a job setting; use Objective = RobustObjective with RobustBand")
	}
	if s.CostModel != (cost.Model{}) {
		if err := s.CostModel.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// Pruner picks the pruning rule the spec asks for — the only thing that
// differs between the optimization variants (§4) — from dp's three.
func (s JobSpec) Pruner() dp.Pruner {
	if s.Objective.HasFrontier() {
		// Robust jobs reuse the Pareto rule unchanged: with the Buffer
		// slot carrying worst-case band cost, dominance over (Cost,
		// Buffer) is exactly "never better at either endpoint". Pareto
		// reads an α below 1 (the zero value) as 1.
		return dp.Pareto{Alpha: s.Alpha}
	}
	if s.InterestingOrders {
		return dp.OrderAware{}
	}
	return dp.SingleBest{}
}

// EffectiveModel is the cost model the DP actually runs under: the
// spec's CostModel (zero value = cost.Default()), with the RobustCost
// second metric and band substituted in for RobustObjective jobs.
// Plan validation must use this model, not CostModel, for robust
// answers — their Buffer annotations are worst-case band costs.
func (s JobSpec) EffectiveModel() cost.Model {
	m := s.CostModel
	if s.Objective == RobustObjective {
		if m == (cost.Model{}) {
			m = cost.Default()
		}
		m.Second = cost.RobustCost
		m.RobustBand = s.RobustBand
		if m.RobustBand == 0 {
			m.RobustBand = DefaultRobustBand
		}
	}
	return m
}

// DPOptions assembles the DP engine options for this spec.
func (s JobSpec) DPOptions() dp.Options {
	return dp.Options{
		Model:             s.EffectiveModel(),
		Pruner:            s.Pruner(),
		InterestingOrders: s.InterestingOrders,
	}
}

// slots hold the process's GOMAXPROCS DP runtimes (plan-node arena +
// memo table, and the memory of the run's helpers), made at init and
// kept for the process's life. A slot is a core and its memory: every
// engine's dynamic programs run on one slot each, and a program borrows
// only the cores of the idle slots it takes as helpers, never their
// runtimes. So a process runs at most cap(slots) DP workers at once and
// a job reuses the memory earlier jobs grew. Reuse is safe because
// Finish deep-copies the surviving plans out of the arenas.
var slots = make(chan *dp.Runtime, runtime.GOMAXPROCS(0))

// waiting counts the runWorker calls that wait for a slot.
var waiting atomic.Int32

func init() {
	for range cap(slots) {
		slots <- dp.NewRuntime()
	}
}

// runDP is a variable so a test can watch which runtimes run at a time.
var runDP = dp.RunContext

// RunWorkerContext executes one worker task (Algorithm 2) on a runtime
// slot: decode the partition ID into constraints and run the constrained
// dynamic program. Every engine's workers go through it. A wait for a
// slot that ctx ends returns ctx's cause; the dynamic program checks ctx
// between (and periodically within) cardinality levels.
func RunWorkerContext(ctx context.Context, q *query.Query, spec JobSpec, partID int) (*dp.Result, error) {
	res, _, err := runWorker(ctx, q, spec, partID)
	return res, err
}

// maxHelpers caps a partition's helpers at the one width measured,
// w = 2 (docs/perf.md §15). A wider level is cut into the same few
// tasks, and wakes more goroutines.
const maxHelpers = 1

// minWideSlots is, per plan space, the smallest memo, in slots, whose
// partition borrows helpers: below it, sharing each level costs more
// than it saves. A bushy set has more splits to share than a linear one
// (docs/perf.md §15 has the measured table).
var minWideSlots = [...]uint64{partition.Linear: 8192, partition.Bushy: 2048}

// runWorker is RunWorkerContext plus the task's own run time, measured
// once it holds its slot. A spec or partition ID that fails validation is
// refused before the wait for a slot. A job of fewer partitions than
// slots lends each of its partitions of at least minWideSlots memo slots
// the cores of up to min(maxHelpers, cap(slots)/Workers − 1) more slots —
// those idle when the partition starts, without waiting — as the dynamic
// program's helpers (dp.Options.Helpers), so a partition running alone
// widens each cardinality level onto an idle core. When another
// partition waits for a slot, a helper stops at its next task and its
// slot goes to the waiter (lent.release).
func runWorker(ctx context.Context, q *query.Query, spec JobSpec, partID int) (*dp.Result, time.Duration, error) {
	if err := spec.Validate(q.N()); err != nil {
		return nil, 0, err
	}
	cs, err := partition.ForPartition(spec.Space, q.N(), partID, spec.Workers)
	if err != nil {
		return nil, 0, err
	}
	rt, err := takeSlot(ctx)
	if err != nil {
		return nil, 0, err
	}
	defer func() { slots <- rt }()
	start := time.Now()
	opts := spec.DPOptions()
	opts.Runtime = rt
	if cs.CountAdmissible() >= minWideSlots[cs.Space] {
		l := &lent{rts: takeIdle(min(maxHelpers, cap(slots)/spec.Workers-1))}
		opts.Helpers, opts.Release = len(l.rts), l.release
		defer l.giveBack()
	}
	res, err := runDP(ctx, q, cs, opts)
	return res, time.Since(start), err
}

// takeSlot takes a runtime slot, waiting for one as long as ctx lasts.
func takeSlot(ctx context.Context) (*dp.Runtime, error) {
	select {
	case rt := <-slots:
		return rt, nil
	default:
	}
	waiting.Add(1)
	defer waiting.Add(-1)
	select {
	case rt := <-slots:
		return rt, nil
	case <-ctx.Done():
		return nil, context.Cause(ctx)
	}
}

// takeIdle takes up to n runtime slots that are free now, without
// waiting for one.
func takeIdle(n int) []*dp.Runtime {
	var rts []*dp.Runtime
	for range n {
		select {
		case rt := <-slots:
			rts = append(rts, rt)
		default:
			return rts
		}
	}
	return rts
}

// lent is the slots whose cores one dynamic program's helpers borrow.
// released counts the helpers that gave their slots back before the
// run's end.
type lent struct {
	rts      []*dp.Runtime
	released atomic.Int32
}

// release is the run's dp.Options.Release. While a partition waits for
// a slot, it lets the asking helper go and puts a slot it borrowed back.
// The helper worked in the run's own runtime, so the slot's runtime is
// untouched.
func (l *lent) release() bool {
	if waiting.Load() == 0 {
		return false
	}
	slots <- l.rts[l.released.Add(1)-1]
	return true
}

// giveBack returns the slots the run still holds after it ends.
func (l *lent) giveBack() {
	for _, rt := range l.rts[l.released.Load():] {
		slots <- rt
	}
}

// Job is one (query, job spec) unit of work: what an engine's
// OptimizeBatch takes a slice of, and what the TCP master and the plan
// cache pipeline.
type Job struct {
	Query *query.Query
	Spec  JobSpec
}

// Prepare is the master's prologue, the same on every substrate:
// validate the query, validate the spec against it, and freeze the query
// so goroutines can share it. Workers validate again what they decode —
// that guards wire input, this guards the caller's.
func (j Job) Prepare() error {
	if err := j.Query.Validate(); err != nil {
		return err
	}
	if err := j.Spec.Validate(j.Query.N()); err != nil {
		return err
	}
	j.Query.Freeze()
	return nil
}

// WorkerReport is the master's record of one worker's contribution.
type WorkerReport struct {
	PartID  int
	Plans   int
	Stats   plan.Stats
	Elapsed time.Duration
}

// Answer is the master's final result.
type Answer struct {
	// Best is the cost-optimal plan (time metric). For multi-objective
	// jobs it is the minimum-time member of the frontier; for robust
	// jobs it is the member with the smallest worst-case band cost
	// (carried in its Buffer annotation).
	Best *plan.Node
	// Frontier is the merged α-approximate Pareto frontier
	// (multi-objective and robust jobs only; nil otherwise).
	Frontier []*plan.Node
	// Stats aggregates worker stats: work counters are summed,
	// MemoEntries is the per-worker maximum (the paper's memory metric).
	Stats plan.Stats
	// MaxWorkerStats is the largest per-worker work counter set — the
	// critical path of skew-free parallel execution.
	MaxWorkerStats plan.Stats
	// PerWorker lists each worker's report, ordered by partition ID.
	PerWorker []WorkerReport
	// Elapsed is the master's total wall-clock time for the job.
	Elapsed time.Duration
	// MaxWorkerElapsed is the slowest worker's wall-clock time
	// ("W-Time" in Figure 2).
	MaxWorkerElapsed time.Duration
	// Net holds the measured TCP traffic when the answer came from the
	// distributed runtime (the TCP engine); nil for other engines.
	Net *NetStats
	// Cluster holds the simulator's measurement record when the answer
	// came from the simulated cluster (the sim engine); nil otherwise.
	Cluster *ClusterMetrics
	// Cache records how a plan cache served this answer when the engine
	// wears one (mpq.WithCache); nil for uncached engines.
	Cache *CacheStats
}

// FinalPrune implements the master's second phase (Algorithm 1, lines
// 8-11): compare the partition-optimal plans returned by the workers and
// keep the global optimum — the single cheapest plan, or the merged
// α-approximate frontier for multi-objective and robust jobs. Best is
// the frontier's minimum-time member, except for robust jobs, where it
// is the member minimizing worst-case band cost (mo.MinWorstCase).
func FinalPrune(spec JobSpec, frontiers [][]*plan.Node) (best *plan.Node, frontier []*plan.Node, err error) {
	if spec.Objective.HasFrontier() {
		frontier = mo.Merge(frontiers, spec.Alpha)
		if spec.Objective == RobustObjective {
			best = mo.MinWorstCase(frontier)
		} else {
			for _, p := range frontier {
				if best == nil || p.Cost < best.Cost {
					best = p
				}
			}
		}
	} else {
		for _, f := range frontiers {
			for _, p := range f {
				if best == nil || p.Cost < best.Cost {
					best = p
				}
			}
		}
	}
	if best == nil {
		return nil, nil, fmt.Errorf("core: no plan returned by any worker")
	}
	return best, frontier, nil
}

// PartResult is one plan-space partition's result as the master
// accepted it: the partition-optimal plans, the worker's work counters
// and how long the worker took (on whatever clock the substrate runs).
type PartResult struct {
	Plans   []*plan.Node
	Stats   plan.Stats
	Elapsed time.Duration
}

// Gather is the master's epilogue, the same on every substrate: fold
// the partition results — indexed by partition ID, so the answer never
// depends on arrival order, retries or batch interleaving — into the
// work totals and per-worker reports, then FinalPrune. The caller adds
// what only it knows: Elapsed and its substrate's Net or Cluster record.
func Gather(spec JobSpec, parts []PartResult) (*Answer, error) {
	ans := &Answer{PerWorker: make([]WorkerReport, len(parts))}
	frontiers := make([][]*plan.Node, len(parts))
	for partID, p := range parts {
		ans.PerWorker[partID] = WorkerReport{PartID: partID, Plans: len(p.Plans), Stats: p.Stats, Elapsed: p.Elapsed}
		ans.Stats.Add(p.Stats)
		if p.Stats.WorkUnits() > ans.MaxWorkerStats.WorkUnits() {
			ans.MaxWorkerStats = p.Stats
		}
		ans.MaxWorkerElapsed = max(ans.MaxWorkerElapsed, p.Elapsed)
		frontiers[partID] = p.Plans
	}
	var err error
	if ans.Best, ans.Frontier, err = FinalPrune(spec, frontiers); err != nil {
		return nil, err
	}
	return ans, nil
}

// RunPartitions is the master's fan-out, the same on every in-process
// substrate: it calls work once for every ID in [0, m) — the partitions
// of a job, or the jobs of a batch — on min(m, GOMAXPROCS) goroutines
// (more would only queue for the runtime slots) that pull IDs in rising
// order, and returns the results indexed by ID. The first error —
// work's, or the cause of ctx ending — stops the hand-out, cancels the
// ctx the running calls were given, and is returned once they have; no
// goroutine outlives the call.
func RunPartitions[T any](ctx context.Context, m int, work func(ctx context.Context, id int) (T, error)) ([]T, error) {
	ctx, cancel := context.WithCancelCause(ctx)
	defer cancel(nil)
	results := make([]T, m)
	var next atomic.Int64
	var wg sync.WaitGroup
	for range min(cap(slots), m) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				id := int(next.Add(1)) - 1
				if id >= m {
					return
				}
				res, err := work(ctx, id)
				if err != nil {
					cancel(err)
					return
				}
				results[id] = res
			}
		}()
	}
	wg.Wait()
	if ctx.Err() != nil {
		return nil, context.Cause(ctx)
	}
	return results, nil
}

// OptimizeContext runs MPQ with in-process goroutine workers: the
// Master function of Algorithm 1 with goroutines standing in for
// cluster nodes, each partition's dynamic program on a runtime slot.
// Every worker checks ctx between cardinality levels (and periodically
// within one), and the master returns an error wrapping ctx's cause
// after all workers have stopped.
func OptimizeContext(ctx context.Context, q *query.Query, spec JobSpec) (*Answer, error) {
	if err := (Job{Query: q, Spec: spec}).Prepare(); err != nil {
		return nil, err
	}
	start := time.Now()
	parts, err := RunPartitions(ctx, spec.Workers, func(ctx context.Context, partID int) (PartResult, error) {
		res, elapsed, err := runWorker(ctx, q, spec, partID)
		if err != nil {
			return PartResult{}, err
		}
		return PartResult{Plans: res.Plans, Stats: res.Stats, Elapsed: elapsed}, nil
	})
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	ans, err := Gather(spec, parts)
	if err != nil {
		return nil, err
	}
	ans.Elapsed = time.Since(start)
	return ans, nil
}
