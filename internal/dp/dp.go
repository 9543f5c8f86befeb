// Package dp implements the dynamic-programming plan search executed by
// each worker (Algorithm 2): Selinger-style enumeration of admissible join
// results in ascending cardinality, trying all admissible operand splits
// and pruning dominated plans.
//
// The engine is parameterized by a Pruner, mirroring the paper's
// observation (§4) that single-objective, multi-objective and parametric
// query optimization share the same dynamic-programming scheme and differ
// only in the pruning function. Running the engine on the unconstrained
// partition with one worker reproduces the classical serial algorithm
// ([17] for left-deep, [25] for bushy spaces).
//
// # Cost-first candidate evaluation
//
// Pruning is a two-phase, cost-first protocol. For every candidate join
// the engine first computes only the scalars pruning reads — cost, output
// order and, for pruners that read it, the second metric — and asks the
// Pruner's Admits whether a plan with those scalars would survive against
// the plans already retained for the table set. Only admitted candidates
// are materialized as plan.Node values and handed to Insert. The split
// between Admits and Insert must agree — Admits answers exactly "would
// Insert keep this plan?" — which the engine relies on for its
// kept/pruned accounting.
//
// The engine applies two rules itself instead of calling them through
// the interface. SingleBest, whose frontier is one plan: the engine
// keeps the set's survivor as a pending record of its join arguments and
// builds its plan.Node once, when the set is complete (docs/perf.md,
// "One survivor, built once"). Pareto without interesting orders: the
// engine forms the second metrics once per split and tests dominance
// inline (docs/perf.md, "The Pareto rule in the engine").
//
// Most candidates are pruned, so a candidate must cost a handful of flops.
// Everything a join's scalars read from an operand that depends on the
// operand's table set only — cardinalities, the sort-merge sort terms
// (the one place the cost model takes a logarithm), the set's neighbour
// mask — is computed once per set and stored in its memo entry; the
// three operator costs are formed once per split from those facts, by
// the cost.Model formulas themselves and in plan.JoinScalars' association
// order, so every scalar is bit-identical to the reference formula that
// Validate recomputes. See docs/perf.md, "Per-set operand facts".
//
// Both also bound without interesting orders: an operand pair whose
// cheapest candidate is not below SingleBest's pending survivor, or whose
// componentwise lower bound a retained plan α-dominates, is counted as
// pruned unoffered (docs/perf.md, "Whole-pair pruning" and "The Pareto
// rule in the engine").
//
// The admissible join results themselves are streamed per cardinality
// from partition.Enumerator instead of being materialized up front,
// keeping the master/worker memory footprint within the paper's
// per-partition bounds (Theorem 4).
//
// # Memory locality
//
// The survivor side is allocation-free too: retained plans are
// materialized into a per-run plan.Arena (contiguous slabs) — once per
// set under SingleBest; frontier pruners build admitted candidates in a
// nursery arena and copy the set's final frontier — and each memo
// entry's 1–2-plan frontier lives inline in the entry (Frontier).
//
// The memo is an array of exactly partition.CountAdmissible entries —
// the paper's per-worker space bound (¾ resp. ⅞ of the memory per
// doubling of the workers) made literal — addressed by partition.Index,
// a set's rank in Algorithm 4's enumeration: no hashing, no keys, no
// probing, and as the rank rises along the enumeration the dynamic
// program writes the array front to back while the operands it reads
// walk forward. Singletons, some of which have no rank in a linear
// partition, live in a per-table scan slice. A Runtime bundles arenas
// and memo so a worker optimizing a batch of queries recycles them —
// the steady state performs (almost) no heap allocation. See
// docs/perf.md for the design and the measured trajectory.
package dp

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"unsafe"

	"mpq/internal/bitset"
	"mpq/internal/cost"
	"mpq/internal/partition"
	"mpq/internal/plan"
	"mpq/internal/query"
)

// Candidate is the scalar summary of a prospective join plan: exactly the
// annotations pruning decisions depend on, computed by the engine —
// bit-identical to plan.JoinScalars — without building the plan.Node.
type Candidate struct {
	// Cost is the cumulative time-metric cost the plan would have.
	Cost float64
	// Buffer is the cumulative second-metric value (buffer footprint, the
	// θ=1 cost under a parametric model, the worst-case cost under a
	// robust one). OrderAware never reads it and is handed zero.
	Buffer float64
	// Order is the output sort order (query.AttrID or query.NoOrder).
	Order int
}

// Pruner decides which plans to retain per table set, in two phases.
//
// Admits is the cost-first admission check: it reports whether a plan
// with cand's scalars would survive against the already-retained
// frontier. It is called once per generated candidate — the optimizer's
// hottest path — and must not allocate or mutate the frontier.
//
// Insert adds p, a materialized plan for which Admits just returned
// true against the same frontier, to the retained set, evicting any
// retained plans p dominates (Frontier.Filter + Frontier.Append is the
// canonical shape). The engine only calls Insert after a successful
// Admits, so implementations may assume p survives. Implementations
// must keep the invariant that no retained plan dominates another (for
// their notion of dominance). The engine applies SingleBest's rule, and
// Pareto's without interesting orders, itself, without calling them.
type Pruner interface {
	Admits(f *Frontier, cand Candidate) bool
	Insert(f *Frontier, p *plan.Node)
}

// costOnlyPruner marks the frontier pruners whose decisions never read
// Candidate.Buffer. NewEngine checks for it once: such a pruner is handed
// candidates with Buffer left zero and the second metric is computed for
// survivors only; any other pruner gets both metrics on every candidate.
type costOnlyPruner interface{ costOnly() }

func (OrderAware) costOnly() {}

// SingleBest retains exactly one plan: the cheapest by the time metric.
// This is the classical pruning function of [17] without interesting
// orders. The engine applies its rule to a pending record instead of
// calling it; a type wrapping these methods gets the same plans.
type SingleBest struct{}

// Admits implements Pruner: only a new strict minimum survives.
func (SingleBest) Admits(f *Frontier, cand Candidate) bool {
	return f.Len() == 0 || cand.Cost < f.At(0).Cost
}

// Insert implements Pruner.
func (SingleBest) Insert(f *Frontier, p *plan.Node) {
	if f.Len() == 0 {
		f.Append(p)
		return
	}
	f.Set(0, p)
}

// OrderAware retains the cheapest plan per distinct output order: a plan
// is dominated iff another plan is at most as expensive and produces the
// same tuples in the same (or a strictly more useful) order — the
// comparison the paper's Prune function performs [17].
type OrderAware struct{}

// orderDominates reports whether a plan with order qo can substitute for
// one with order po in any context: equal orders always can, and any
// order can substitute for "no order" (sortedness only ever reduces
// downstream cost).
func orderDominates(qo, po int) bool {
	return qo == po || po == query.NoOrder
}

// Admits implements Pruner: the candidate is dominated iff a retained
// plan is at most as expensive and its order can substitute.
func (OrderAware) Admits(f *Frontier, cand Candidate) bool {
	for i, n := 0, f.Len(); i < n; i++ {
		q := f.At(i)
		if q.Cost <= cand.Cost && orderDominates(q.Order, cand.Order) {
			return false
		}
	}
	return true
}

// Insert implements Pruner: p survives; evict plans it dominates.
func (OrderAware) Insert(f *Frontier, p *plan.Node) {
	f.Filter(func(q *plan.Node) bool {
		return !(p.Cost <= q.Cost && orderDominates(p.Order, q.Order))
	})
	f.Append(p)
}

// Pareto retains an α-approximate Pareto frontier over (Cost, Buffer)
// per table set: the multi-objective pruning function of Trummer & Koch
// [22, 23]. A plan q α-dominates a candidate c iff q.Cost ≤ α·c.Cost,
// q.Buffer ≤ α·c.Buffer and q's order can substitute for c's. α = 1
// keeps the exact frontier; α > 1 coarsens it, and every discarded plan
// has an α-dominating witness among the retained ones. Without
// interesting orders the engine applies this rule itself (docs/perf.md
// §11); a type wrapping these methods gets the same plans.
type Pareto struct {
	// Alpha ≥ 1 is the approximation factor; below 1 means 1.
	Alpha float64
}

// alpha is the clamped factor both paths apply.
func (p Pareto) alpha() float64 {
	if p.Alpha < 1 {
		return 1
	}
	return p.Alpha
}

// Admits implements Pruner: the candidate is discarded iff a retained
// plan α-dominates it. It performs no allocations.
func (p Pareto) Admits(f *Frontier, cand Candidate) bool {
	a := p.alpha()
	for i, n := 0, f.Len(); i < n; i++ {
		q := f.At(i)
		if q.Cost <= a*cand.Cost && q.Buffer <= a*cand.Buffer && orderDominates(q.Order, cand.Order) {
			return false
		}
	}
	return true
}

// Insert implements Pruner: p joins the frontier and evicts the retained
// plans it dominates exactly (α = 1).
func (Pareto) Insert(f *Frontier, p *plan.Node) {
	f.Filter(func(q *plan.Node) bool {
		return !(p.Cost <= q.Cost && p.Buffer <= q.Buffer && orderDominates(p.Order, q.Order))
	})
	f.Append(p)
}

// Options configures one dynamic-programming run.
type Options struct {
	// Model is the cost model; zero value is replaced by cost.Default().
	Model cost.Model
	// Pruner defaults to SingleBest.
	Pruner Pruner
	// InterestingOrders enables sort-order tracking: sort-merge joins
	// produce ordered output and pre-sorted inputs skip sort passes.
	// Off by default, matching the paper's complexity analysis (§5).
	InterestingOrders bool
	// DisableCrossProducts heuristically skips disconnected join results
	// (an ablation switch; the paper deliberately allows cross products).
	DisableCrossProducts bool
	// MaxWorkUnits aborts the search once the work meter exceeds this
	// bound (0 = unlimited). Used by time-budgeted experiments
	// (Table 1): work is deterministic, so exceeding the unit budget is
	// exactly "the time budget ran out".
	MaxWorkUnits uint64
	// Runtime supplies reusable per-run memory (plan-node arena + memo
	// array). nil means the run builds a private runtime; supplying one
	// lets a worker recycle slabs and memo capacity across queries. The
	// run resets the runtime, so a Runtime may back at most one engine
	// at a time.
	Runtime *Runtime
}

func (o Options) withDefaults() Options {
	if o.Model == (cost.Model{}) {
		o.Model = cost.Default()
	}
	if o.Pruner == nil {
		o.Pruner = SingleBest{}
	}
	return o
}

// Result is the outcome of searching one plan-space partition.
type Result struct {
	// Plans holds the retained plans for the full query: exactly one for
	// SingleBest, one per useful order for OrderAware, a Pareto frontier
	// for multi-objective pruners. Empty only if the partition admits no
	// complete plan (cannot happen for valid partitions).
	Plans []*plan.Node
	// Stats is the work and memory accounting for this run.
	Stats plan.Stats
}

// Best returns the cheapest plan by the time metric (the master-side
// FinalPrune for single-objective optimization).
func (r *Result) Best() *plan.Node {
	var best *plan.Node
	for _, p := range r.Plans {
		if best == nil || p.Cost < best.Cost {
			best = p
		}
	}
	return best
}

// entry is the memo record for one table set: its retained plans plus
// the per-set operand facts — everything a candidate join reads from an
// operand that depends on the operand's table set only, computed once
// when the set is stored. It is held by value in the memo (no per-set
// heap allocation) with its 1–2-plan frontier inline, so looking a set
// up touches one contiguous slot instead of chasing an entry pointer
// and a slice header. The zero entry — empty frontier — means "no plan
// for this set".
type entry struct {
	card float64
	// cardHi is the set's cardinality at the high endpoint of the
	// selectivity-uncertainty band (RobustCost models); equal to card
	// otherwise. It is the cardinality the second metric's operator
	// formulas read.
	cardHi float64
	// sort is Model.SortTerm(card) and sort2 Model.SecondSortTerm(card,
	// cardHi): what this set adds, as an unsorted sort-merge input, to
	// the operator's cost and second metric.
	sort, sort2 float64
	// nbr is query.Neighbors of the set: a predicate connects this set
	// to a disjoint set r iff nbr meets r.
	nbr bitset.Set
	f   Frontier
}

// setSortTerms fills sort and sort2 from card and cardHi — the only
// logarithms the dynamic program takes, one or two per table set.
func (e *entry) setSortTerms(m *cost.Model) {
	e.sort = m.SortTerm(e.card)
	e.sort2 = m.SecondSortTerm(e.card, e.cardHi)
}

// Run searches the plan-space partition cs of query q and returns the
// retained plans for the full query set (Algorithm 2). cs determines the
// plan space (Linear or Bushy) and the join-order constraints; use
// partition.Unconstrained for the classical serial algorithm.
func Run(q *query.Query, cs *partition.ConstraintSet, opts Options) (*Result, error) {
	return RunContext(context.Background(), q, cs, opts)
}

// cancelPollInterval is how many processed sets may pass between two
// context-cancellation checks inside one cardinality level. Checking
// ctx.Err() takes a mutex, so the hot loop amortizes it; a level's tail
// is always bounded by this many sets plus the set in flight.
const cancelPollInterval = 256

// RunContext is Run with cooperative cancellation: the search checks
// ctx between cardinality levels and every cancelPollInterval table
// sets within a level, returning an error wrapping ctx's cause as soon
// as the current set finishes. Partial results are discarded — a
// canceled partition search yields no plans.
func RunContext(ctx context.Context, q *query.Query, cs *partition.ConstraintSet, opts Options) (*Result, error) {
	eng, err := NewEngine(q, cs, opts)
	if err != nil {
		return nil, err
	}
	n := q.N()
	enum := cs.NewEnumerator()
	sincePoll := 0
	for k := 2; k <= n; k++ {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("dp: canceled at cardinality %d: %w", k, context.Cause(ctx))
		}
		done := enum.ForEachAdmissible(k, func(u bitset.Set) bool {
			eng.ProcessSet(u)
			if sincePoll++; sincePoll >= cancelPollInterval {
				sincePoll = 0
				if ctx.Err() != nil {
					return false
				}
			}
			return !eng.LimitExceeded()
		})
		if !done {
			if err := ctx.Err(); err != nil {
				return nil, fmt.Errorf("dp: canceled at cardinality %d: %w", k, context.Cause(ctx))
			}
			return nil, fmt.Errorf("%w after %d units", ErrWorkLimit, eng.Stats().WorkUnits())
		}
	}
	return eng.Finish()
}

// ErrWorkLimit is returned when Options.MaxWorkUnits is exceeded.
var ErrWorkLimit = errors.New("dp: work limit exceeded")

// ErrMemoTooLarge is returned (wrapped) by NewEngine when the partition's
// memo — one entry per admissible join result — cannot be allocated at
// all: a valid query may have bitset.MaxTables tables, and the memo is
// exponential in that number.
var ErrMemoTooLarge = errors.New("dp: memo too large")

// maxMemoBytes keeps the memo array below the size at which make panics
// instead of allocating (2^47–2^48 bytes on 64-bit ports).
const maxMemoBytes = min(1<<46, math.MaxInt)

// EntryBytes is the resident size of one memo entry: what a partition's
// Stats.MemoEntries are multiplied by to get its memory footprint.
const EntryBytes = uint64(unsafe.Sizeof(entry{}))

// memoSlots returns the length of the memo array for a run over cs.
func memoSlots(cs *partition.ConstraintSet) (int, error) {
	slots := cs.CountAdmissible()
	if hi, bytes := bits.Mul64(slots, EntryBytes); hi != 0 || bytes > maxMemoBytes {
		return 0, fmt.Errorf("%w: %d tables in %d partitions take %d entries of %d bytes (%.3g bytes, limit %d)",
			ErrMemoTooLarge, cs.N, 1<<uint(len(cs.List)), slots, EntryBytes, float64(slots)*float64(EntryBytes), uint64(maxMemoBytes))
	}
	return int(slots), nil
}

// Engine exposes the dynamic program one table set at a time, so that
// schedulers other than the straight Algorithm 2 loop — in particular
// the SMA baseline, which assigns sets to workers in rounds — drive the
// exact same plan generation and pruning logic.
type Engine struct{ w worker }

// NewEngine validates the inputs, sizes the memo and builds the scan
// plan of every table. It returns an error wrapping ErrMemoTooLarge for
// a query whose memo cannot be allocated.
func NewEngine(q *query.Query, cs *partition.ConstraintSet, opts Options) (*Engine, error) {
	opts = opts.withDefaults()
	if err := q.Validate(); err != nil {
		return nil, err
	}
	if err := opts.Model.Validate(); err != nil {
		return nil, err
	}
	if cs.N != q.N() {
		return nil, fmt.Errorf("dp: constraint set is for %d tables, query has %d", cs.N, q.N())
	}
	slots, err := memoSlots(cs)
	if err != nil {
		return nil, err
	}
	q.Freeze()

	n := q.N()
	_, costOnly := opts.Pruner.(costOnlyPruner)
	eng := &Engine{w: worker{q: q, cs: cs, index: cs.Index(), opts: opts, second: !costOnly}}
	w := &eng.w
	_, w.single = opts.Pruner.(SingleBest)
	if p, ok := opts.Pruner.(Pareto); ok && !opts.InterestingOrders {
		w.pareto, w.alpha = true, p.alpha()
	}
	// The memo, the arenas and the scan entries are borrowed from the
	// runtime (and reset), so a worker recycles them across the queries of
	// a batch.
	rt := opts.Runtime
	if rt == nil {
		rt = NewRuntime()
	}
	w.arena, w.nursery = &rt.arena, &rt.nursery
	w.arena.Reset()
	rt.spills.reset()
	w.spills = &rt.spills
	w.memo = rt.memoFor(slots)
	w.scans = rt.scansFor(n)
	for t := 0; t < n; t++ {
		sp := w.arena.Scan(opts.Model, q, t)
		e := &w.scans[t]
		*e = entry{card: sp.Card, cardHi: sp.Card, nbr: q.Neighbors(sp.Tables), f: FrontierOf(sp)}
		e.setSortTerms(&w.opts.Model)
		w.stats.PlansKept++
		w.stats.MemoEntries++
	}
	if cs.Space == partition.Bushy {
		w.splitter = cs.NewSplitter()
	}
	return eng, nil
}

// ProcessSet treats one admissible join result — a set of two or more
// tables that the partition's Enumerator yields: all admissible splits
// are tried and surviving plans stored in the memo. Sets must be
// processed in non-decreasing cardinality. It returns the work units
// (1 + splits tried) this set cost. Any other set has no memo slot of
// its own; passing one is a bug in the caller and panics.
func (e *Engine) ProcessSet(u bitset.Set) uint64 {
	if u.Count() < 2 || !e.w.q.All().ContainsAll(u) || !e.w.cs.Admissible(u) {
		panic(fmt.Sprintf("dp: ProcessSet(%v): not an admissible join result of partition %s", u, e.w.cs.Describe()))
	}
	if e.w.opts.DisableCrossProducts && !e.w.q.Connected(u) {
		return 0
	}
	before := e.w.stats.WorkUnits()
	e.w.trySplits(u)
	return e.w.stats.WorkUnits() - before
}

// ForEachPlan calls fn for each retained plan of table set u — a single
// table or an admissible join result — in frontier order, without
// allocating (the SMA driver reads every set's plans once per round
// through this). Plans may live in the engine's arena: they are valid
// for the engine's lifetime but must not be retained past it (Finish
// returns recycling-safe copies of the root plans).
func (e *Engine) ForEachPlan(u bitset.Set, fn func(*plan.Node)) {
	ent := e.w.lookup(u)
	for i, n := 0, ent.f.Len(); i < n; i++ {
		fn(ent.f.At(i))
	}
}

// LimitExceeded reports whether the work meter has passed
// Options.MaxWorkUnits.
func (e *Engine) LimitExceeded() bool {
	return e.w.opts.MaxWorkUnits > 0 && e.w.stats.WorkUnits() > e.w.opts.MaxWorkUnits
}

// Stats returns the cumulative work counters so far.
func (e *Engine) Stats() plan.Stats { return e.w.stats }

// Finish validates that a complete plan exists and returns the result.
// The surviving root plans are deep-copied out of the arena onto the
// heap: the Result then shares no memory with the engine, so a pooled
// Runtime can be recycled (and the arena's slabs are not pinned by a
// handful of returned plans).
func (e *Engine) Finish() (*Result, error) {
	q := e.w.q
	root := e.w.lookup(q.All())
	if root.f.Len() == 0 {
		return nil, fmt.Errorf("dp: no complete plan found (n=%d, partition %s)", q.N(), e.w.cs.Describe())
	}
	res := &Result{Plans: root.f.Slice(), Stats: e.Stats()}
	for i, p := range res.Plans {
		res.Plans[i] = plan.CloneTree(p)
	}
	return res, nil
}

// worker carries the per-run state of the split enumeration.
type worker struct {
	q        *query.Query
	cs       *partition.ConstraintSet
	opts     Options
	index    *partition.Index
	memo     []entry     // memo[index.Of(s)] = the entry of admissible set s, |s| ≥ 2
	scans    []entry     // scans[t] = the entry of {t}
	arena    *plan.Arena // the memo's plans
	nursery  *plan.Arena // the plans of the set under construction
	spills   *spillArena // the memo frontiers' spilled plan pointers
	stats    plan.Stats
	splitter *partition.Splitter
	predBuf  []int
	// second: the pruner reads Candidate.Buffer (see costOnlyPruner).
	second bool
	// single: the pruner is SingleBest, whose survivor is pend.
	single bool
	pend   pending
	// pareto: the pruner is Pareto with the clamped factor alpha and
	// orders are off, so the splits go to combinePareto.
	pareto bool
	alpha  float64
	// le and re are the operand entries of the split under evaluation.
	le, re *entry
	// scratch is the entry under construction. It lives in the worker —
	// not on trySplits' stack — because its frontier's address crosses
	// the Pruner interface, which would force a per-set heap escape.
	scratch entry
}

// pending is SingleBest's survivor of the set under construction: the
// arguments its plan.Node is built from once the set is complete. lp is
// nil until a candidate is admitted, and cost is NaN then, which the
// whole-pair skip never passes.
type pending struct {
	lp, rp           *plan.Node
	le, re           *entry
	alg              cost.JoinAlg
	pred, order      int
	lSorted, rSorted bool
	cost             float64
}

// lookup returns the entry of s, a single table or an admissible join
// result; an empty frontier means no plan is known for s. It is the
// per-split hot path and written to fit the compiler's inlining budget.
func (w *worker) lookup(s bitset.Set) *entry {
	if s&(s-1) == 0 {
		return &w.scans[bits.TrailingZeros64(uint64(s))]
	}
	return &w.memo[w.index.Of(s)]
}

// trySplits generates and prunes all plans for join result u
// (Algorithm 5, both variants). The entry is assembled in the worker's
// scratch slot and stored by value once complete; operand entries are
// read in place.
func (w *worker) trySplits(u bitset.Set) {
	w.stats.SetsProcessed++
	e := &w.scratch
	e.card = -1
	e.f.reset()
	w.pend.lp, w.pend.cost = nil, math.NaN()
	if w.pareto {
		w.paretoSplits(u)
	} else if w.cs.Space == partition.Linear {
		for rem := u; rem != 0; rem &= rem - 1 {
			t := bits.TrailingZeros64(uint64(rem))
			if !w.cs.InnerAllowed(u, t) {
				continue
			}
			inner := rem & -rem
			outer := u &^ inner
			le := w.lookup(outer)
			if le.f.Len() == 0 {
				continue
			}
			w.combine(outer, inner, le, &w.scans[t])
		}
	} else {
		w.splitter.ForEachLeft(u, func(left bitset.Set) {
			right := u.Minus(left)
			le, re := w.lookup(left), w.lookup(right)
			if le.f.Len() == 0 || re.f.Len() == 0 {
				return
			}
			w.combine(left, right, le, re)
		})
	}
	if p := &w.pend; p.lp != nil {
		// SingleBest's one survivor is built where it is stored, with the
		// second metric of its own split.
		w.le, w.re = p.le, p.re
		spec := plan.JoinSpec{Alg: p.alg, OutCard: e.card, Pred: p.pred, Order: p.order, LSorted: p.lSorted, RSorted: p.rSorted}
		e.f.Append(w.arena.JoinWithScalars(p.lp, p.rp, spec, p.cost, w.secondMetric(p.lp, p.rp, p.alg, p.lSorted, p.rSorted)))
	} else if e.f.Len() > 0 {
		// Of the set's admitted candidates only the plans still retained
		// move to the memo's arena, which so stays dense.
		for i, n := 0, e.f.Len(); i < n; i++ {
			e.f.Set(i, w.arena.Copy(e.f.At(i)))
		}
		w.nursery.Reset()
	}
	if e.f.Len() == 0 {
		return
	}
	e.setSortTerms(&w.opts.Model)
	slot := &w.memo[w.index.Of(u)]
	if slot.f.Len() == 0 {
		w.stats.MemoEntries++
	}
	*slot = *e
	if len(e.f.spill) > 0 {
		// The scratch frontier keeps its spill array for the next set, so
		// the memo's copy gets its own exact-size region from the
		// runtime's recyclable spill slabs.
		slot.f.spill = w.spills.clone(e.f.spill)
	}
}

// paretoSplits is trySplits' split loop for combinePareto. It is a loop
// of its own so that combine's callers do not branch per split.
func (w *worker) paretoSplits(u bitset.Set) {
	if w.cs.Space == partition.Linear {
		for rem := u; rem != 0; rem &= rem - 1 {
			t := bits.TrailingZeros64(uint64(rem))
			if !w.cs.InnerAllowed(u, t) {
				continue
			}
			outer := u &^ (rem & -rem)
			if le := w.lookup(outer); le.f.Len() > 0 {
				w.combinePareto(outer, rem&-rem, le, &w.scans[t])
			}
		}
		return
	}
	w.splitter.ForEachLeft(u, func(left bitset.Set) {
		right := u.Minus(left)
		if le, re := w.lookup(left), w.lookup(right); le.f.Len() > 0 && re.f.Len() > 0 {
			w.combinePareto(left, right, le, re)
		}
	})
}

// combine generates candidate plans for every operand-plan pair and join
// algorithm of the split (left, right) and offers them to the pruner.
// The operator costs and whether a merge predicate exists are formed
// once per split from the entries' stored facts; a candidate then costs
// two additions — (l.Cost + r.Cost) + op, plan.JoinScalars' association
// — and one admission check. Without interesting orders, a pair whose
// cheapest candidate is not below SingleBest's pending survivor costs one
// comparison instead (docs/perf.md §9).
func (w *worker) combine(left, right bitset.Set, le, re *entry) {
	w.stats.SplitsTried++
	e, m := &w.scratch, &w.opts.Model
	if e.card < 0 {
		w.firstSplit(left, right, le, re)
	}
	// A sort-merge join needs a merge predicate: one exists iff a
	// neighbour of left lies in right. Which ones matters to interesting
	// orders only.
	hasPred := le.nbr&right != 0
	orders := w.opts.InterestingOrders
	if hasPred && orders {
		w.predBuf = w.q.ConnectingPreds(w.predBuf[:0], left, right)
	}
	w.le, w.re = le, re
	lc, rc := le.card, re.card
	nl, hash := m.NestedLoopCost(lc, rc), m.HashCost(lc, rc)
	sm := m.SortMergeCost(lc, rc, le.sort, re.sort, false, false)
	// Without interesting orders a pair offers exactly these k candidates.
	minOp, k := min(nl, hash), uint64(2)
	if hasPred {
		minOp, k = min(minOp, sm), 3
	}

	for li, ln := 0, le.f.Len(); li < ln; li++ {
		lp := le.f.At(li)
		for ri, rn := 0, re.f.Len(); ri < rn; ri++ {
			rp := re.f.At(ri)
			in := lp.Cost + rp.Cost
			// pend.cost stays NaN, skipping nothing, under other pruners.
			if !orders && in+minOp >= w.pend.cost {
				w.stats.PlansPruned += k
				continue
			}
			// Nested-loop join: preserves the outer order.
			w.offer(lp, rp, cost.NestedLoop, plan.NoPred, lp.Order, false, false, in+nl)
			// Hash join: order destroyed.
			w.offer(lp, rp, cost.Hash, plan.NoPred, query.NoOrder, false, false, in+hash)
			if !hasPred {
				continue
			}
			if !orders {
				w.offer(lp, rp, cost.SortMerge, plan.NoPred, query.NoOrder, false, false, in+sm)
				continue
			}
			// One sort-merge candidate per merge predicate: an input
			// already sorted on its merge attribute drops its sort term.
			for _, pi := range w.predBuf {
				p := w.q.Preds[pi]
				la, ra := plan.MergeAttrs(p, left)
				ls, rs := lp.Order == la, rp.Order == ra
				w.offer(lp, rp, cost.SortMerge, pi, plan.CanonicalMergeOrder(p), ls, rs,
					in+m.SortMergeCost(lc, rc, le.sort, re.sort, ls, rs))
			}
		}
	}
}

// firstSplit fills the scratch entry's cardinalities and neighbour mask,
// which every split of the set gives alike, from its first split.
func (w *worker) firstSplit(left, right bitset.Set, le, re *entry) {
	e, m := &w.scratch, &w.opts.Model
	e.card = le.card * re.card * w.q.SelBetween(left, right)
	e.cardHi = e.card
	if m.Second == cost.RobustCost {
		e.cardHi = le.cardHi * re.cardHi * w.q.SelBetweenInflated(left, right, m.RobustBand)
	}
	e.nbr = le.nbr | re.nbr
}

// combinePareto is combine for a Pareto pruner without interesting
// orders, where every plan has no order. The operators' second metrics
// are formed once per split too, by the calls secondMetric makes, and
// the engine applies Pareto's rule itself: dominated, then Insert. A
// pair whose bound — the cheapest operator's cost and the smallest
// second metric, each rounded as a candidate's is — is α-dominated by a
// retained plan has every candidate dominated, so its k candidates are
// counted as pruned unoffered (docs/perf.md §11).
func (w *worker) combinePareto(left, right bitset.Set, le, re *entry) {
	w.stats.SplitsTried++
	e, m := &w.scratch, &w.opts.Model
	if e.card < 0 {
		w.firstSplit(left, right, le, re)
	}
	hasPred := le.nbr&right != 0
	nl, hash := m.NestedLoopCost(le.card, re.card), m.HashCost(le.card, re.card)
	sm := m.SortMergeCost(le.card, re.card, le.sort, re.sort, false, false)
	nl2 := m.JoinSecond(cost.NestedLoop, le.cardHi, re.cardHi, false, false)
	hash2 := m.JoinSecond(cost.Hash, le.cardHi, re.cardHi, false, false)
	sm2 := m.SortMergeSecond(le.cardHi, re.cardHi, le.sort2, re.sort2, false, false)
	minOp, minOp2, k := min(nl, hash), min(nl2, hash2), uint64(2)
	if hasPred {
		minOp, minOp2, k = min(minOp, sm), min(minOp2, sm2), 3
	}
	for li, ln := 0, le.f.Len(); li < ln; li++ {
		lp := le.f.At(li)
		for ri, rn := 0, re.f.Len(); ri < rn; ri++ {
			rp := re.f.At(ri)
			in := lp.Cost + rp.Cost
			if w.dominated(in+minOp, m.CombineSecond(lp.Buffer, rp.Buffer, minOp2)) {
				w.stats.PlansPruned += k
				continue
			}
			w.offerPareto(lp, rp, cost.NestedLoop, lp.Order, in+nl, m.CombineSecond(lp.Buffer, rp.Buffer, nl2))
			w.offerPareto(lp, rp, cost.Hash, query.NoOrder, in+hash, m.CombineSecond(lp.Buffer, rp.Buffer, hash2))
			if hasPred {
				w.offerPareto(lp, rp, cost.SortMerge, query.NoOrder, in+sm, m.CombineSecond(lp.Buffer, rp.Buffer, sm2))
			}
		}
	}
}

// dominated is Pareto's Admits, negated, for a candidate with no order
// against the set under construction: the same comparisons, without the
// order test that every plan passes here.
func (w *worker) dominated(c, buf float64) bool {
	f, a := &w.scratch.f, w.alpha
	for i, n := 0, f.Len(); i < n; i++ {
		q := f.At(i)
		if q.Cost <= a*c && q.Buffer <= a*buf {
			return true
		}
	}
	return false
}

// offerPareto is offer for combinePareto's candidates: an admitted one is
// built in the nursery and inserted by Pareto's Insert, called directly.
func (w *worker) offerPareto(lp, rp *plan.Node, alg cost.JoinAlg, order int, c, buf float64) {
	if w.dominated(c, buf) {
		w.stats.PlansPruned++
		return
	}
	e := &w.scratch
	spec := plan.JoinSpec{Alg: alg, OutCard: e.card, Pred: plan.NoPred, Order: order}
	Pareto{}.Insert(&e.f, w.nursery.JoinWithScalars(lp, rp, spec, c, buf))
	w.stats.PlansKept++
}

// secondMetric returns the Buffer annotation of the join of lp and rp
// over the current split, as plan.JoinScalars(Robust) computes it: the
// operator's value over the entries' cardHi (the sort-merge one from the
// stored SecondSortTerms), folded with the inputs' by CombineSecond.
func (w *worker) secondMetric(lp, rp *plan.Node, alg cost.JoinAlg, lSorted, rSorted bool) float64 {
	m, le, re := &w.opts.Model, w.le, w.re
	var op float64
	if alg == cost.SortMerge {
		op = m.SortMergeSecond(le.cardHi, re.cardHi, le.sort2, re.sort2, lSorted, rSorted)
	} else {
		op = m.JoinSecond(alg, le.cardHi, re.cardHi, lSorted, rSorted)
	}
	return m.CombineSecond(lp.Buffer, rp.Buffer, op)
}

// offer evaluates one candidate join of cost c cost-first: its scalars
// are checked against the pruner without building a node. Under
// SingleBest an admitted candidate replaces the pending record; under
// other pruners it gets its plan.JoinSpec and is materialized, in the
// nursery's slabs. The second metric is part of the check only for
// pruners that read it; otherwise survivors alone get one.
func (w *worker) offer(lp, rp *plan.Node, alg cost.JoinAlg, pred, order int, lSorted, rSorted bool, c float64) {
	if w.single {
		p := &w.pend
		if p.lp != nil && !(c < p.cost) {
			w.stats.PlansPruned++
			return
		}
		// Field by field: a composite literal compiles to a block copy.
		p.lp, p.rp, p.le, p.re = lp, rp, w.le, w.re
		p.alg, p.pred, p.order, p.lSorted, p.rSorted, p.cost = alg, pred, order, lSorted, rSorted, c
		w.stats.PlansKept++
		return
	}
	e := &w.scratch
	var buf float64
	if w.second {
		buf = w.secondMetric(lp, rp, alg, lSorted, rSorted)
	}
	if !w.opts.Pruner.Admits(&e.f, Candidate{Cost: c, Buffer: buf, Order: order}) {
		w.stats.PlansPruned++
		return
	}
	if !w.second {
		buf = w.secondMetric(lp, rp, alg, lSorted, rSorted)
	}
	spec := plan.JoinSpec{Alg: alg, OutCard: e.card, Pred: pred, Order: order, LSorted: lSorted, RSorted: rSorted}
	w.opts.Pruner.Insert(&e.f, w.nursery.JoinWithScalars(lp, rp, spec, c, buf))
	w.stats.PlansKept++
}

// Serial runs the classical (unpartitioned) dynamic program for the given
// plan space — the single-worker baseline all speedups are measured
// against (§6.2).
func Serial(q *query.Query, space partition.Space, opts Options) (*Result, error) {
	return Run(q, partition.Unconstrained(space, q.N()), opts)
}
