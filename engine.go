package mpq

import (
	"context"
	"fmt"

	"mpq/internal/cache"
	"mpq/internal/cluster"
	"mpq/internal/core"
	"mpq/internal/netrun"
)

// Engine is the unified optimizer interface: one partitioning scheme,
// five engines (serial, local, sim, tcp, daemon — the package comment
// lists them). Every engine runs the identical worker code on the
// identical plan-space partitions, so for the same query and JobSpec
// all engines return the same optimal plan (bit-identical under wire
// encoding) — the paper's central claim, expressed as an interface.
//
// Optimize runs one query. OptimizeBatch pipelines a batch of
// independent queries through the engine; answers come back in input
// order and are bit-identical to running each job by itself, and the
// first failure cancels the jobs still running; an empty batch returns
// an empty slice and no error. Both
// honor ctx: cancellation stops the dynamic program between (and
// periodically within) cardinality levels, aborts in-flight network
// work, and returns an error wrapping context.Canceled (or
// context.DeadlineExceeded) with no goroutine left behind. Per-job
// deadlines flow from context.WithDeadline.
type Engine interface {
	Optimize(ctx context.Context, q *Query, spec JobSpec) (*Answer, error)
	OptimizeBatch(ctx context.Context, jobs []Job) ([]*Answer, error)
}

// Job is one (query, job spec) unit of an OptimizeBatch call.
type Job = core.Job

// NetStats records the measured TCP traffic of a distributed answer
// (TCPEngine); see Answer.Net.
type NetStats = core.NetStats

// EngineOption configures an engine constructor. Options apply to the
// engines they are meaningful for and are ignored by the others, so
// one option list can configure a table of engines:
//
//	WithClusterModel  — SimEngine
//	WithClusterFaults — SimEngine
//	WithMasterOptions — TCPEngine
//
// What describes the job rather than the substrate — the cost model
// included — is a JobSpec field, not an option, and GOMAXPROCS sets how
// many dynamic programs a process runs at once.
type EngineOption func(*engineConfig)

type engineConfig struct {
	clusterModel ClusterModel
	faults       ClusterFaults
	masterOpts   MasterOptions
}

func newEngineConfig(opts []EngineOption) engineConfig {
	cfg := engineConfig{clusterModel: cluster.Default()}
	for _, o := range opts {
		o(&cfg)
	}
	return cfg
}

// WithClusterModel sets the simulated cluster parameters of a
// SimEngine. The default is DefaultClusterModel().
func WithClusterModel(m ClusterModel) EngineOption {
	return func(c *engineConfig) { c.clusterModel = m }
}

// WithClusterFaults sets, for every query a SimEngine optimizes, the
// fault script (deaths, stalls) and the simulated master's policy
// (ClusterFaults.Policy, the same type as MasterOptions); the recovery
// overhead shows up in Answer.Cluster.
func WithClusterFaults(f ClusterFaults) EngineOption {
	return func(c *engineConfig) { c.faults = f }
}

// WithMasterOptions sets the policy of a TCPEngine's master:
// per-attempt timeout, retry budget, worker exclusion, per-worker
// weights and the adaptive-scheduling switches.
func WithMasterOptions(o MasterOptions) EngineOption {
	return func(c *engineConfig) { c.masterOpts = o }
}

// optimizeAll is the batch of the engines whose dynamic programs run on
// this process's runtime slots: every job is submitted at once, answers
// equal individual Optimize calls, and the first failure cancels the rest.
func optimizeAll(ctx context.Context, jobs []Job, optimize func(context.Context, *Query, JobSpec) (*Answer, error)) ([]*Answer, error) {
	return core.RunPartitions(ctx, len(jobs), func(ctx context.Context, i int) (*Answer, error) {
		ans, err := optimize(ctx, jobs[i].Query, jobs[i].Spec)
		if err != nil {
			return nil, fmt.Errorf("batch job %d: %w", i, err)
		}
		return ans, nil
	})
}

// InProcessEngine runs MPQ with goroutine workers — the shared-nothing
// algorithm on a single machine, each partition on one of the process's
// GOMAXPROCS runtime slots (docs/perf.md), which all engines share. A
// job of fewer partitions than slots lends each partition of a large
// memo one slot idle when it starts, and its dynamic program shares
// every cardinality level with it on one memo, with the same plans and
// work counters, until another partition waits for a slot (docs/perf.md
// §15).
type InProcessEngine struct {
	// serial pins every job to one partition (NewSerialEngine).
	serial bool
}

// NewInProcessEngine returns the goroutine-worker engine. No option applies.
func NewInProcessEngine(opts ...EngineOption) *InProcessEngine {
	return &InProcessEngine{}
}

// NewSerialEngine returns the classical single-node dynamic program —
// the baseline every speedup is measured against: the in-process engine
// with JobSpec.Workers overridden to 1, so it always searches the
// unpartitioned plan space, with bit-identical plans and plan.Stats at
// any core count. A large job's levels spread over one runtime slot
// idle at the start; GOMAXPROCS=1 gives the single-core baseline. No
// option applies.
func NewSerialEngine(opts ...EngineOption) *InProcessEngine {
	return &InProcessEngine{serial: true}
}

// Optimize implements Engine.
func (e *InProcessEngine) Optimize(ctx context.Context, q *Query, spec JobSpec) (*Answer, error) {
	if e.serial {
		spec.Workers = 1
	}
	return core.OptimizeContext(ctx, q, spec)
}

// OptimizeBatch implements Engine by submitting every job at once.
func (e *InProcessEngine) OptimizeBatch(ctx context.Context, jobs []Job) ([]*Answer, error) {
	return optimizeAll(ctx, jobs, e.Optimize)
}

// SimEngine runs MPQ on the deterministic shared-nothing cluster
// simulator: real worker code, byte-exact network accounting, virtual
// time. Every Answer carries the simulator's measurement record in
// Answer.Cluster.
type SimEngine struct {
	cfg engineConfig
}

// NewSimEngine returns the cluster-simulation engine. Applicable
// options: WithClusterModel, WithClusterFaults.
func NewSimEngine(opts ...EngineOption) *SimEngine {
	return &SimEngine{cfg: newEngineConfig(opts)}
}

// Optimize implements Engine. Answer.Elapsed is the real wall-clock
// time of the simulation; Answer.MaxWorkerElapsed and the per-worker
// report Elapsed values are *virtual* compute times under the cluster
// model, and the cluster's virtual time, traffic and per-worker memory
// peak are in Answer.Cluster.
func (e *SimEngine) Optimize(ctx context.Context, q *Query, spec JobSpec) (*Answer, error) {
	return cluster.Run(ctx, e.cfg.clusterModel, q, spec, e.cfg.faults)
}

// OptimizeBatch implements Engine by submitting every job at once; the
// virtual clock still models each query occupying the cluster alone.
func (e *SimEngine) OptimizeBatch(ctx context.Context, jobs []Job) ([]*Answer, error) {
	return optimizeAll(ctx, jobs, e.Optimize)
}

// TCPEngine runs MPQ over the fault-tolerant TCP master/worker
// runtime. Every Answer carries measured traffic in Answer.Net.
// OptimizeBatch pipelines the partitions of many queries through one
// pool of keep-alive connections, and the engine keeps them warm across
// calls: a call dials only the workers no earlier call left a healthy
// connection to (observable as Answer.Net.Dials; transport failures
// force redials). Close closes the warm connections.
type TCPEngine struct {
	ms *netrun.Master
}

// NewTCPEngine returns a TCP engine over the given worker addresses
// (start workers with ListenWorker or `mpqnode worker`). Applicable
// option: WithMasterOptions.
func NewTCPEngine(addrs []string, opts ...EngineOption) (*TCPEngine, error) {
	ms, err := netrun.NewMaster(addrs, newEngineConfig(opts).masterOpts)
	if err != nil {
		return nil, err
	}
	return &TCPEngine{ms: ms}, nil
}

// Optimize implements Engine. The runtime fills Answer.Net directly.
func (e *TCPEngine) Optimize(ctx context.Context, q *Query, spec JobSpec) (*Answer, error) {
	return e.ms.Optimize(ctx, q, spec)
}

// OptimizeBatch implements Engine; see netrun.Master.OptimizeBatch for
// the dispatch and failure semantics.
func (e *TCPEngine) OptimizeBatch(ctx context.Context, jobs []Job) ([]*Answer, error) {
	return e.ms.OptimizeBatch(ctx, jobs)
}

// Close closes the connections that earlier calls left warm. A call
// still running closes its own when it ends; later calls dial afresh.
func (e *TCPEngine) Close() error { return e.ms.Close() }

// CacheConfig parameterizes the plan cache of a CachedEngine.
// MaxBytes is the eviction budget (encoded keys + encoded plans +
// bookkeeping); 0 means unlimited.
type CacheConfig = cache.Config

// CacheTotals is a snapshot of a CachedEngine's cache-wide counters:
// hits, misses, singleflight/batch collapses, evictions, and current
// occupancy. Collisions is always zero: the cache indexes entries by
// their full keys.
type CacheTotals = cache.Totals

// CachedEngine wraps any Engine with a plan cache keyed by the job:
// repeated optimization requests are served from the store instead of
// re-running the dynamic program, concurrent identical requests
// collapse onto one computation (singleflight), and the store is kept
// under a byte budget by GreedyDual-Size-Frequency eviction (plans that
// are hit often or are expensive to recompute survive longer; the hit
// count saturates at 15, so a plan whose traffic moved on still ages
// out). Build one with WithCache.
//
// Cached answers are bit-identical (wire plan fingerprint) to the
// wrapped engine's answers: the cache serves shallow copies sharing the
// immutable plan trees. Each answer's Answer.Cache records whether it
// was a hit, a collapse, or a miss, plus the cache-wide counters at
// serve time.
//
// The cache keys on the canonical wire encoding of (query, JobSpec) —
// join graph, cardinalities, selectivities, plan space, worker count,
// objective and cost model — so anything that could change the chosen
// plan changes the key: the spec is the whole job, no engine rewrites
// it. Entries are indexed by those bytes in full, so two jobs share an
// entry only if their encodings are equal. Parametric jobs (ParametricSpec) are cached like any other; one
// stored frontier answers every θ through ParametricBest.
type CachedEngine struct {
	inner Engine
	cache *cache.Cache
}

// WithCache wraps an engine with a plan cache. It composes with every
// engine — serial, in-process, simulated and TCP — because it sits
// entirely above the Engine interface.
func WithCache(eng Engine, cfg CacheConfig) *CachedEngine {
	return &CachedEngine{inner: eng, cache: cache.New(cfg)}
}

// Optimize implements Engine. A stored answer is served without
// touching the wrapped engine; concurrent identical misses run one
// inner Optimize. If the computing caller's context is canceled
// mid-flight, leadership hands off to a waiting identical request
// rather than failing it.
func (e *CachedEngine) Optimize(ctx context.Context, q *Query, spec JobSpec) (*Answer, error) {
	return e.cache.Optimize(ctx, q, spec, e.inner.Optimize)
}

// OptimizeBatch implements Engine with in-batch deduplication: cache
// hits are served from the store, duplicate jobs within the batch
// collapse onto one computation, and only the distinct misses reach the
// wrapped engine's OptimizeBatch — in a single call, so its batch
// pipelining (e.g. the TCP master's connection reuse) is preserved.
func (e *CachedEngine) OptimizeBatch(ctx context.Context, jobs []Job) ([]*Answer, error) {
	return e.cache.OptimizeBatch(ctx, jobs, e.inner.OptimizeBatch)
}

// CacheTotals returns a snapshot of the cache-wide counters.
func (e *CachedEngine) CacheTotals() CacheTotals { return e.cache.Totals() }

// AppendWireHit answers a wire job request by its bytes, for a serving
// front that speaks the wire protocol (the mpqd daemon). req is a
// job-request frame's payload. If the cache stores its job, the stored
// reply frame — length prefix included, Seq set to req's, byte for byte
// the JobResponse an answer to req would encode to — is appended to dst
// and returned with the stored answer (shared: do not modify it), and
// the hit counts in CacheTotals. Otherwise dst comes back unchanged with
// false, and the caller decodes req and calls Optimize as usual. No
// query is decoded and no plan encoded either way.
func (e *CachedEngine) AppendWireHit(dst, req []byte) ([]byte, *Answer, bool) {
	return e.cache.AppendWireHit(dst, req)
}

// Compile-time proof that all engines implement Engine.
var (
	_ Engine = (*InProcessEngine)(nil)
	_ Engine = (*SimEngine)(nil)
	_ Engine = (*TCPEngine)(nil)
	_ Engine = (*CachedEngine)(nil)
)
