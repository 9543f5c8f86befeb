// Package mpq is a massively-parallel query optimizer: a Go
// implementation of "Parallelizing Query Optimization on Shared-Nothing
// Architectures" (Trummer & Koch, VLDB 2016).
//
// MPQ divides the plan search space of a join query into equal-size
// partitions using join-order constraints, optimizes every partition
// independently with a Selinger-style dynamic program, and compares the
// partition-optimal plans to obtain the global optimum. One task per
// worker, one round of communication, no shared state — so it scales on
// clusters as well as on cores.
//
// # Quick start
//
//	q := mpq.MustNewQuery([]mpq.QueryTable{
//		{Name: "orders", Cardinality: 1e6},
//		{Name: "customers", Cardinality: 1e4},
//		{Name: "nations", Cardinality: 25},
//	})
//	q.MustAddPredicate(mpq.Predicate{Left: 0, Right: 1, Selectivity: 1e-4})
//	q.MustAddPredicate(mpq.Predicate{Left: 1, Right: 2, Selectivity: 0.04})
//
//	eng := mpq.NewInProcessEngine()
//	ans, err := eng.Optimize(context.Background(), q, mpq.JobSpec{Space: mpq.Linear, Workers: 2})
//	if err != nil { ... }
//	fmt.Println(ans.Best.Format())
//
// # Execution engines
//
// All engines implement the Engine interface — context-aware Optimize
// plus batch-capable OptimizeBatch — run the same worker code on the
// same plan-space partitions, and return identical plans. There are
// five, named as the CLIs' -engine flag names them:
//
//   - serial: NewSerialEngine — the in-process engine pinned to one
//     partition, the classical single-node dynamic program every
//     speedup is measured against. It searches the unpartitioned space
//     with bit-identical plans, spreading a large job's cardinality
//     levels over one idle runtime slot; GOMAXPROCS=1 gives the
//     single-core baseline.
//   - local: NewInProcessEngine — goroutine workers in this process;
//     every partition's dynamic program runs on one of GOMAXPROCS
//     runtime slots the whole process shares.
//   - sim: NewSimEngine — deterministic shared-nothing cluster
//     simulation with byte-exact network accounting (the engine behind
//     the paper's figures); answers carry ClusterMetrics in
//     Answer.Cluster.
//   - tcp: NewTCPEngine — real TCP master/worker deployment (start
//     workers with ListenWorker); answers carry NetStats in Answer.Net.
//   - daemon: internal/server.Client — a thin client of a resident mpqd.
//
// Constructors take functional options (WithClusterModel,
// WithClusterFaults, WithMasterOptions) for what belongs to the
// substrate; everything that belongs to the job — plan
// space, partitions, objective, cost model — is a JobSpec field.
// Cancellation and per-job deadlines flow through context.Context.
// (Query, JobSpec) through Engine.Optimize or OptimizeBatch is the only
// way an optimization is described or started; multi-objective, robust
// and parametric (ParametricSpec) optimization are specs, not entry
// points. See docs/api.md for the full engine guide.
//
// Any engine composes with WithCache, which serves repeated requests
// from a fingerprint-keyed plan cache (singleflight collapsing,
// GreedyDual-Size-Frequency eviction: recompute cost per byte times a
// hit count that saturates at 15, so a once-hot plan still ages out)
// with answers bit-identical to the uncached engine's:
//
//	cached := mpq.WithCache(eng, mpq.CacheConfig{MaxBytes: 1 << 20})
//
// # Multi-objective optimization
//
// Set JobSpec.Objective to MultiObjective to approximate the Pareto
// frontier over (time, buffer space) with the α-approximate pruning of
// Trummer & Koch; Alpha = 1 yields the exact frontier.
//
// # Robust plans under estimation error
//
// Set JobSpec.Objective to RobustObjective to optimize against a
// selectivity uncertainty band instead of point estimates: every
// predicate selectivity s may really be anywhere in [s, min(1, s·B)]
// with B = JobSpec.RobustBand (default DefaultRobustBand). The engine
// tracks each candidate plan's nominal cost and its worst-case cost at
// the high endpoint of the band, keeps the Pareto frontier over the
// pair, and picks the plan minimizing the worst case as Answer.Best
// (the frontier is in Answer.Frontier; worst-case cost is the plan's
// Buffer annotation). PerturbQuery injects seeded q-error-style noise
// into selectivities for regret experiments; see docs/workloads.md.
package mpq

import (
	"mpq/internal/catalog"
	"mpq/internal/cluster"
	"mpq/internal/core"
	"mpq/internal/cost"
	"mpq/internal/estim"
	"mpq/internal/exec"
	"mpq/internal/mo"
	"mpq/internal/netrun"
	"mpq/internal/partition"
	"mpq/internal/plan"
	"mpq/internal/pqo"
	"mpq/internal/query"
	"mpq/internal/wire"
	"mpq/internal/workload"
)

// Core model types.
type (
	// Query is a join query: tables plus equality predicates.
	Query = query.Query
	// QueryTable is one base relation of a query.
	QueryTable = query.Table
	// Predicate is an equality join predicate with a selectivity.
	Predicate = query.Predicate
	// Plan is an operator-tree query plan with cost annotations.
	Plan = plan.Node
	// Stats counts optimizer work (sets, splits, plans, memo size).
	Stats = plan.Stats
	// CostModel parameterizes operator cost formulas.
	CostModel = cost.Model
	// Space selects the left-deep (Linear) or Bushy plan space.
	Space = partition.Space
	// Objective selects single- or multi-objective optimization.
	Objective = core.Objective
	// JobSpec describes one optimization job (space, workers, objective).
	JobSpec = core.JobSpec
	// Answer is the result of an optimization run.
	Answer = core.Answer
	// CacheStats records how a plan cache served an answer (Answer.Cache,
	// set by CachedEngine): hit/collapse flags plus cache-wide counters.
	CacheStats = core.CacheStats
	// CostVector is a plan's (time, buffer) cost in multi-objective mode.
	CostVector = mo.Vector
)

// Catalog types.
type (
	// Catalog stores table statistics (cardinalities, attribute domains).
	Catalog = catalog.Catalog
	// CatalogTable is one relation's statistics.
	CatalogTable = catalog.Table
	// Attribute is one column with its domain size.
	Attribute = catalog.Attribute
	// Schema is a TPC-style schema definition: tables and joins whose
	// statistics scale with a scale factor (see Schema.Build).
	Schema = catalog.Schema
)

// Cluster-simulation types.
type (
	// ClusterModel parameterizes the simulated shared-nothing cluster.
	ClusterModel = cluster.Model
	// ClusterMetrics holds bytes, messages, virtual time and counters.
	ClusterMetrics = cluster.Metrics
)

// Workload-generation types.
type (
	// WorkloadParams configures random query generation (Steinbrunn).
	WorkloadParams = workload.Params
	// Shape is a join-graph structure (Star, Chain, Cycle, Clique,
	// Snowflake).
	Shape = workload.Shape
	// StreamParams configures a Zipf-popularity repeat stream of queries
	// (the workload a plan cache is measured against).
	StreamParams = workload.StreamParams
	// Stream is a generated repeat stream: distinct queries plus arrival
	// order.
	Stream = workload.Stream
)

// Distributed-runtime types.
type (
	// TCPWorker serves optimization jobs over TCP.
	TCPWorker = netrun.Endpoint
	// MasterOptions is the master's policy (internal/sched.Config, where
	// every field is documented): per-attempt deadline, per-partition
	// retry budget, worker-exclusion threshold, per-worker weights,
	// speculation and re-admission.
	MasterOptions = netrun.Options
	// ClusterFaults scripts worker deaths and stalls for the cluster
	// simulator, and carries the simulated master's policy as one
	// MasterOptions value (Policy).
	ClusterFaults = cluster.Faults
)

// Plan spaces.
const (
	Linear = partition.Linear
	Bushy  = partition.Bushy
)

// Objectives.
const (
	SingleObjective = core.SingleObjective
	MultiObjective  = core.MultiObjective
	RobustObjective = core.RobustObjective
)

// DefaultRobustBand is the selectivity uncertainty band a robust job
// uses when JobSpec.RobustBand is zero: each predicate selectivity s is
// assumed to really lie in [s, min(1, 2s)].
const DefaultRobustBand = core.DefaultRobustBand

// Join-graph shapes.
const (
	Star      = workload.Star
	Chain     = workload.Chain
	Cycle     = workload.Cycle
	Clique    = workload.Clique
	Snowflake = workload.Snowflake
)

// NoOrder marks a plan output without a useful sort order.
const NoOrder = query.NoOrder

// NewQuery creates a query over the given tables.
func NewQuery(tables []QueryTable) (*Query, error) { return query.New(tables) }

// MustNewQuery is NewQuery for known-valid input; panics on error.
func MustNewQuery(tables []QueryTable) *Query { return query.MustNew(tables) }

// DefaultCostModel returns the cost model used throughout the paper
// reproduction (Steinbrunn-style operator formulas).
func DefaultCostModel() CostModel { return cost.Default() }

// MaxWorkers returns the largest worker count the partitioning scheme
// supports for a query of n tables: 2^⌊n/2⌋ (Linear) or 2^⌊n/3⌋ (Bushy).
func MaxWorkers(space Space, n int) int { return partition.MaxWorkers(space, n) }

// DefaultClusterModel returns the calibrated simulated-cluster
// parameters used by the experiment harness.
func DefaultClusterModel() ClusterModel { return cluster.Default() }

// GenerateWorkload builds a random catalog and query by the Steinbrunn
// et al. method the paper benchmarks with. Same (params, seed) — same
// query.
func GenerateWorkload(p WorkloadParams, seed int64) (*Catalog, *Query, error) {
	return workload.Generate(p, seed)
}

// NewWorkloadParams returns the default generation parameters for an
// n-table query with the given join-graph shape.
func NewWorkloadParams(n int, shape Shape) WorkloadParams { return workload.NewParams(n, shape) }

// TPCHSchema returns the built-in TPC-H-style schema (eight relations
// with the spec's scale-factor-1 statistics and foreign-key joins).
func TPCHSchema() *Schema { return catalog.TPCH() }

// TPCDSSchema returns the built-in TPC-DS-style snowflake schema
// (store_sales fact, dimensions and sub-dimensions).
func TPCDSSchema() *Schema { return catalog.TPCDS() }

// SchemaWorkload builds the catalog and the canonical foreign-key join
// query of a TPC-style schema at the given scale factor. Deterministic:
// no random draws are taken.
func SchemaWorkload(s *Schema, sf float64) (*Catalog, *Query, error) {
	return workload.FromSchema(s, sf)
}

// SubgraphWorkload builds the catalog and join query of a random
// connected sub-graph of a TPC-style schema's foreign-key join graph:
// tables relations chosen by seeded random connected growth, joined by
// every schema join between chosen relations. Same (schema, sf, tables,
// seed) — same query.
func SubgraphWorkload(s *Schema, sf float64, tables int, seed int64) (*Catalog, *Query, error) {
	return workload.SubgraphFromSchema(s, sf, tables, seed)
}

// ListenWorker starts a TCP optimization worker on addr (host:port;
// use ":0" for an ephemeral port).
func ListenWorker(addr string) (*TCPWorker, error) { return netrun.ListenWorker(addr) }

// EncodeQuery serializes a query into the wire format used between
// master and workers.
func EncodeQuery(q *Query) []byte { return wire.EncodeQuery(q) }

// DecodeQuery parses a serialized query.
func DecodeQuery(b []byte) (*Query, error) { return wire.DecodeQuery(b) }

// EncodePlan serializes a plan with its cost annotations.
func EncodePlan(p *Plan) []byte { return wire.EncodePlan(p) }

// DecodePlan parses a serialized plan.
func DecodePlan(b []byte) (*Plan, error) { return wire.DecodePlan(b) }

// PlanFingerprint returns a comparable, printable fingerprint of a
// plan: the hex SHA-256 of its wire encoding. Equal fingerprints mean
// bit-identical plans — same structure, algorithms and cost
// annotations. This is the equivalence the engines guarantee across
// substrates and the plan cache guarantees across hits.
func PlanFingerprint(p *Plan) string { return wire.PlanFingerprint(p) }

// ExactFrontier filters plans down to their exact Pareto frontier over
// (time, buffer).
func ExactFrontier(plans []*Plan) []*Plan { return mo.ExactFrontier(plans) }

// ValidatePlan recomputes a plan's annotations against the query and
// cost model and reports the first inconsistency.
func ValidatePlan(p *Plan, q *Query, m CostModel) error { return p.Validate(q, m) }

// --- Estimation error and robustness (see internal/estim) ---

// PerturbQuery returns a copy of q whose predicate selectivities carry
// seeded multiplicative q-error-style noise: each selectivity is
// multiplied by (1+magnitude)^u with u uniform on [-1, 1], clamped to
// (0, 1]. magnitude 0 returns q itself — bit-identical plans, no random
// draws. Same (query, magnitude, seed) — same perturbed query.
func PerturbQuery(q *Query, magnitude float64, seed int64) (*Query, error) {
	return estim.Perturb(q, estim.Noise{Magnitude: magnitude, Seed: seed})
}

// InflateQuery returns a copy of q with every predicate selectivity s
// replaced by min(1, s·band) — the high endpoint of the uncertainty
// band a robust job plans against. band 1 returns q itself.
func InflateQuery(q *Query, band float64) (*Query, error) {
	return estim.Inflate(q, band)
}

// QError returns the q-error between an estimated and a true value:
// max(est/truth, truth/est), the standard multiplicative estimation-
// error metric (Moerkotte et al., VLDB 2009). +Inf if either is
// nonpositive.
func QError(est, truth float64) float64 { return estim.QError(est, truth) }

// ReannotatePlan recomputes a plan's cardinality and cost annotations
// bottom-up under a (possibly different) query's selectivities, keeping
// the join order and algorithms fixed — the "what does this plan really
// cost" primitive of the regret experiment. The input plan is not
// modified.
func ReannotatePlan(p *Plan, q *Query, m CostModel) (*Plan, error) {
	return p.Reannotate(q, m)
}

// --- Parametric query optimization (see internal/pqo) ---

// ParametricSpec describes a parametric MPQ job: plan costs are linear
// in a run-time parameter θ ∈ [0,1] (memory pressure; hash joins cost
// spill times more at θ=1) and the answer's Frontier contains an
// optimal plan for every θ. The paper's partitioning covers this
// variant unchanged (§2, §4), so the spec runs on every Engine like any
// other — cancellation, batches and WithCache included; pick a plan
// for a concrete θ with ParametricBest.
func ParametricSpec(space Space, workers int, spill float64) JobSpec {
	return pqo.JobSpec(space, workers, spill)
}

// ParametricCostAt evaluates a parametric plan's cost at θ.
func ParametricCostAt(p *Plan, theta float64) float64 { return pqo.CostAt(p, theta) }

// ParametricBest picks the frontier plan that is optimal at θ.
func ParametricBest(frontier []*Plan, theta float64) (*Plan, error) {
	return pqo.Best(frontier, theta)
}

// ParametricBreakpoints returns the θ values (including 0 and 1) that
// delimit the parameter regions with a constant optimal plan.
func ParametricBreakpoints(frontier []*Plan) ([]float64, error) {
	return pqo.Breakpoints(frontier)
}

// GenerateWorkloadStream builds a Zipf-popularity repeat stream of
// queries: p.Distinct distinct queries arriving p.Length times with
// skew-s popularity. Deterministic per (params, seed); the distinct
// queries equal GenerateWorkload(p.Query, seed+rank).
func GenerateWorkloadStream(p StreamParams, seed int64) (*Stream, error) {
	return workload.GenerateStream(p, seed)
}

// --- Reference executor (see internal/exec) ---

// Database is a set of materialized synthetic base tables.
type Database = exec.DB

// ExecLimits bounds executor result sizes.
type ExecLimits = exec.Limits

// Relation is an executed (intermediate) result.
type Relation = exec.Relation

// GenerateData materializes synthetic rows for every catalog table
// (uniform attribute values over their domains; deterministic per seed).
func GenerateData(cat *Catalog, seed int64, lim ExecLimits) (*Database, error) {
	return exec.Generate(cat, seed, lim)
}

// GenerateDataZipf is GenerateData with Zipf-skewed attribute values:
// value v of a domain of size d is drawn with probability proportional
// to 1/(v+1)^s. Skew 0 is exactly GenerateData (uniform, identical draw
// sequence); larger s concentrates rows on few values, making true join
// selectivities diverge from the catalog's uniformity assumption.
func GenerateDataZipf(cat *Catalog, seed int64, lim ExecLimits, skew float64) (*Database, error) {
	return exec.GenerateZipf(cat, seed, lim, skew)
}

// ExecutePlan runs a plan over a database with real join operators and
// returns the result relation. Equivalent plans produce identical
// result multisets (Relation.Fingerprint).
func ExecutePlan(p *Plan, q *Query, db *Database, lim ExecLimits) (*Relation, error) {
	return exec.Execute(p, q, db, lim)
}
