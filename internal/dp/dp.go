// Package dp implements the dynamic-programming plan search executed by
// each worker (Algorithm 2): Selinger-style enumeration of admissible join
// results in ascending cardinality, trying all admissible operand splits
// and pruning dominated plans.
//
// Single- and multi-objective optimization share this dynamic program
// and differ only in the pruning function (§4): Options.Pruner picks
// one of two rules, SingleBest or Pareto. Interesting orders
// (Options.InterestingOrders) change which plans exist, not the rule,
// and both rules honour them: a plan is pruned only by one whose order
// can substitute for its own. Running the engine on the unconstrained
// partition (RunContext on partition.Unconstrained) reproduces the
// classical serial algorithm ([17] for left-deep, [25] for bushy
// spaces). Prune applies the same rule to the complete plans of all
// partitions: the master's final prune (Algorithm 1).
//
// # Closed rules over records
//
// The set of rules is closed, and the engine applies each one itself.
// For every candidate join it first computes only the scalars its rule
// reads — cost and output order, plus the second metric under Pareto —
// and compares them with the candidates already admitted for the table
// set. An admitted candidate is kept as a record of its join arguments,
// not as a plan: SingleBest keeps one record, replaced by every new
// strict minimum; SingleBest under interesting orders (the order-aware
// rule) and Pareto keep a list in frontier order, from which an
// admitted candidate first evicts the records it dominates, in place,
// and is then written once at the end. Beside the list the runtime
// keeps each record's cost and second metric as a compact key, index for
// index; without interesting orders, where no plan has an order, the
// Pareto rule tests a candidate against the keys alone, in a branch-free
// scan (docs/perf.md §18). When the set is complete each surviving
// record is built once, straight into the memo's arena (docs/perf.md,
// "One survivor, built once" and "One construction path").
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
// Without interesting orders SingleBest and Pareto also bound whole
// operand pairs: a pair whose cheapest candidate is not below
// SingleBest's record, or whose componentwise lower bound a retained
// Pareto record α-dominates, is counted as pruned unoffered
// (docs/perf.md, "Whole-pair pruning" and "The Pareto rule in the
// engine").
//
// The dynamic program runs one cardinality level at a time, in
// Engine.Level — the one loop RunContext and the SMA baseline drive. A
// level streams its admissible join results from partition.Enumerator
// instead of materializing them up front, keeping the master/worker
// memory footprint within the paper's per-partition bounds (Theorem 4).
// A set of k tables reads only sets of fewer tables, so the workers of
// Options.Helpers can share a level with the engine's own, each taking
// whole runs of ranks from the Enumerator and writing its sets' slots of
// the one memo, with a barrier between levels (docs/perf.md §15).
//
// # Memory locality
//
// The survivor side is allocation-free too: retained plans are
// materialized into a per-run plan.Arena (contiguous slabs), once per
// survivor, and each memo entry's 1–2-plan frontier lives inline in the
// entry.
//
// The memo is an array of exactly partition.CountAdmissible entries —
// the paper's per-worker space bound (¾ resp. ⅞ of the memory per
// doubling of the workers) made literal — addressed by partition.Index,
// a set's rank in Algorithm 4's enumeration: no hashing, no keys, no
// probing, and as the rank rises along the enumeration the dynamic
// program writes the array front to back while the operands it reads
// walk forward. The ranks come with the sets: the Enumerator yields each
// join result with its rank, the Splitter each bushy split with its
// operands' ranks, and Index.Step gives a linear outer operand's, so
// the split loops compute no index (docs/perf.md, "Ranks travel with
// the sets"). Singletons, some of which have no rank in a linear
// partition, live in a per-table scan slice. A Runtime bundles arena,
// memo and records so a worker optimizing a batch of queries recycles
// them — the steady state performs (almost) no heap allocation. See
// docs/perf.md for the design and the measured trajectory.
package dp

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"unsafe"

	"mpq/internal/bitset"
	"mpq/internal/cost"
	"mpq/internal/partition"
	"mpq/internal/plan"
	"mpq/internal/query"
)

// Pruner is the pruning rule: SingleBest or Pareto. The set is closed —
// the unexported method keeps other types out — because the engine
// applies each rule itself; NewEngine resolves it once, with the factor
// α its dominance test applies and whether interesting orders are on.
type Pruner interface{ rule() (rule, float64) }

// rule names a resolved Pruner to the engine. ruleOrderAware is
// SingleBest under interesting orders.
type rule uint8

const (
	ruleSingleBest rule = iota
	ruleOrderAware
	rulePareto
)

func (SingleBest) rule() (rule, float64) { return ruleSingleBest, 1 }

// SingleBest retains the cheapest plan by the time metric, the first of
// equally cheap ones: the classical pruning function of [17]. Under
// interesting orders it retains the cheapest plan per distinct output
// order instead: a plan is dominated iff another plan is at most as
// expensive and produces the same tuples in the same (or a strictly more
// useful) order — the comparison the paper's Prune function performs
// [17] — and an admitted plan evicts the retained plans it dominates.
type SingleBest struct{}

// orderDominates reports whether a plan with order qo can substitute for
// one with order po in any context: equal orders always can, and any
// order can substitute for "no order" (sortedness only ever reduces
// downstream cost).
func orderDominates(qo, po int) bool {
	return qo == po || po == query.NoOrder
}

// Pareto retains an α-approximate Pareto frontier over (Cost, Buffer)
// per table set: the multi-objective pruning function of Trummer & Koch
// [22, 23]. A plan q α-dominates a candidate c iff q.Cost ≤ α·c.Cost,
// q.Buffer ≤ α·c.Buffer and q's order can substitute for c's. α = 1
// keeps the exact frontier; α > 1 coarsens it, and every discarded plan
// has an α-dominating witness among the retained ones. An admitted plan
// evicts the retained plans it dominates exactly (α = 1).
type Pareto struct {
	// Alpha ≥ 1 is the approximation factor; below 1 means 1.
	Alpha float64
}

// rule clamps Alpha to the factor the engine applies.
func (p Pareto) rule() (rule, float64) {
	if p.Alpha < 1 {
		return rulePareto, 1
	}
	return rulePareto, p.Alpha
}

// Options configures one dynamic-programming run.
type Options struct {
	// Model is the cost model; zero value is replaced by cost.Default().
	Model cost.Model
	// Pruner is the pruning rule; nil means SingleBest.
	Pruner Pruner
	// InterestingOrders enables sort-order tracking: sort-merge joins
	// produce ordered output and pre-sorted inputs skip sort passes.
	// Both rules honour it: a plan is pruned only by one whose order can
	// substitute for its own. Off by default, matching the paper's
	// complexity analysis (§5).
	InterestingOrders bool
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
	// Helpers is the number of further workers that share every
	// cardinality level with the engine's own, on one memo (docs/perf.md
	// §15). Each works in memory the run's Runtime keeps for it. Plans
	// and Stats are the same at any width. core sets it to the number of
	// runtime slots whose cores are idle when a partition starts; zero
	// runs every level on one worker.
	Helpers int
	// Release, if not nil, is asked by a helper before each task it
	// would claim. Once it returns true, that helper claims no task for
	// the rest of the run, and the others share the levels without it.
	// core uses it to hand a helper's core to a partition that waits for
	// one.
	Release func() bool
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
	// SingleBest, one per useful order for SingleBest under interesting
	// orders, a Pareto frontier for Pareto. Empty only if the partition
	// admits no complete plan (cannot happen for valid partitions).
	Plans []*plan.Node
	// Stats is the work and memory accounting for this run.
	Stats plan.Stats
}

// Prune is the master's FinalPrune (Algorithm 1, lines 8-11): it applies
// p's rule to complete plans, in the order given, and returns the
// survivors in ascending cost, ties in that order, or nil if there are
// none. A completed plan's order no longer matters (§4.2), so every plan
// is offered with none. SingleBest keeps the first strictly cheapest
// plan, by offer's test; Pareto keeps an α-approximate frontier, by
// offerPareto — the engine's own rule, applied to the plans as to one
// table set's candidates.
func Prune(p Pruner, plans ...[]*plan.Node) []*plan.Node {
	return prune(p, nil, plans)
}

// prune is Prune, with afterKeep, if not nil, called after every kept
// plan's record is written.
func prune(p Pruner, afterKeep func(*worker), plans [][]*plan.Node) []*plan.Node {
	r, alpha := p.rule()
	var recs []record
	var keys []key
	w := worker{single: r != rulePareto, alpha: alpha, recs: &recs, keys: &keys, afterKeep: afterKeep}
	for _, ps := range plans {
		for _, n := range ps {
			if w.single {
				w.offer(n, nil, 0, plan.NoPred, query.NoOrder, false, false, n.Cost)
			} else {
				w.offerPareto(n, nil, 0, query.NoOrder, n.Cost, n.Buffer)
			}
		}
	}
	if w.pend.lp != nil {
		recs = append(recs, w.pend)
	}
	var out []*plan.Node
	for i := range recs {
		out = append(out, recs[i].lp)
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Cost < out[j].Cost })
	return out
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
	f   frontier
}

// setSortTerms fills sort and sort2 from card and cardHi — the only
// logarithms the dynamic program takes, one or two per table set.
func (e *entry) setSortTerms(m *cost.Model) {
	e.sort = m.SortTerm(e.card)
	e.sort2 = m.SecondSortTerm(e.card, e.cardHi)
}

// cancelPollInterval is how many processed sets may pass between two
// context-cancellation checks inside one cardinality level. Checking
// ctx.Err() takes a mutex, so the hot loop amortizes it; a level's tail
// is always bounded by this many sets plus the set in flight.
const cancelPollInterval = 256

// RunContext searches the plan-space partition cs of query q and
// returns the retained plans for the full query set (Algorithm 2). cs
// determines the plan space (Linear or Bushy) and the join-order
// constraints; partition.Unconstrained gives the classical serial
// algorithm. The search checks ctx between cardinality levels and every
// cancelPollInterval table sets within a level, returning an error
// wrapping ctx's cause as soon as the current set finishes. Partial
// results are discarded — a canceled partition search yields no plans.
func RunContext(ctx context.Context, q *query.Query, cs *partition.ConstraintSet, opts Options) (*Result, error) {
	eng, err := NewEngine(q, cs, opts)
	if err != nil {
		return nil, err
	}
	for k := 2; k <= q.N(); k++ {
		if err := eng.Level(ctx, k, nil); err != nil {
			return nil, err
		}
	}
	return eng.Finish()
}

// Level treats every admissible join result of k tables: one
// cardinality of Algorithm 2's loop. Levels must run in ascending k,
// from 2 to the query's table count. With fn nil, the engine's worker
// and one goroutine per helper (Options.Helpers) claim the level's
// Enumerator tasks from one counter, and Level returns once all of them
// are done; a helper that Options.Release lets go leaves its tasks to
// the others. fn, if not nil, makes the engine's own worker treat every
// set, in the Enumerator's order, and is called after each set is
// stored, with the work units it cost; when it returns false the level
// stops there and Level returns nil.
//
// Level checks ctx when it starts, and each worker after every
// cancelPollInterval of its sets; once it finds ctx ended, it stops with
// an error wrapping ctx's cause. A worker stops with an error wrapping
// ErrWorkLimit once its work meter passes Options.MaxWorkUnits, and a
// level shared with helpers returns that error at its end if the
// workers' summed meter has.
func (e *Engine) Level(ctx context.Context, k int, fn func(u bitset.Set, units uint64) bool) error {
	if fn == nil && len(e.helpers) > 0 {
		return e.wide(ctx, k)
	}
	return e.w.share(ctx, k, nil, fn)
}

// wide is Level shared by the engine's worker and its helpers. wg is the
// level's barrier, and each helper's share leaves its error in its lv.
func (e *Engine) wide(ctx context.Context, k int) error {
	var next atomic.Int64 // the level's task counter
	var wg sync.WaitGroup
	for i := range e.helpers {
		if h := &e.helpers[i]; !h.gone {
			wg.Add(1)
			go func() { defer wg.Done(); h.share(ctx, k, &next, nil) }()
		}
	}
	err := e.w.share(ctx, k, &next, nil)
	wg.Wait()
	for i := range e.helpers {
		err = cmp.Or(err, e.helpers[i].lv.err)
	}
	if limit := e.w.opts.MaxWorkUnits; err == nil && limit > 0 && e.Stats().WorkUnits() > limit {
		err = fmt.Errorf("%w after %d units", ErrWorkLimit, e.Stats().WorkUnits())
	}
	return err
}

// share treats the sets of level k in the tasks the worker claims from
// next, or all of them if next is nil, as Level describes, and returns
// what ended it, which it also leaves in w.lv.err.
func (w *worker) share(ctx context.Context, k int, next *atomic.Int64, fn func(u bitset.Set, units uint64) bool) error {
	w.lv = level{ctx: ctx, k: k, fn: fn, next: next}
	if ctx.Err() != nil {
		w.lv.err = canceled(ctx, k)
		return w.lv.err
	}
	var claim func() int
	if next != nil {
		claim = w.claim
	}
	w.enum.ForEachClaimed(k, claim, w.visit)
	return w.lv.err
}

// level is the cardinality level a worker is treating, as share began
// it: visit's state. It lives in the worker, not in a closure of share's,
// so that the frames every set's call chain carries stay small: a
// partition runs on a fresh goroutine, and a deeper chain makes that
// goroutine copy its stack once more per partition.
type level struct {
	ctx       context.Context
	k         int
	fn        func(u bitset.Set, units uint64) bool
	next      *atomic.Int64
	sincePoll int
	err       error
}

// claim takes the level's next task. A helper that Options.Release lets
// go takes none, in this level or a later one.
func (w *worker) claim() int {
	if w.gone = w.gone || w.opts.Release != nil && w.opts.Release(); w.gone {
		return math.MaxInt32 // past every task: the walk skips the rest
	}
	return int(w.lv.next.Add(1)) - 1
}

// visit treats set u of the level, whose memo slot is rank, and reports
// whether the level goes on.
func (w *worker) visit(u bitset.Set, rank int) bool {
	lv := &w.lv
	units := w.process(u, rank)
	if lv.fn != nil && !lv.fn(u, units) {
		return false
	}
	if lv.sincePoll++; lv.sincePoll >= cancelPollInterval {
		lv.sincePoll = 0
		if lv.ctx.Err() != nil {
			lv.err = canceled(lv.ctx, lv.k)
			return false
		}
	}
	if limit := w.opts.MaxWorkUnits; limit > 0 && w.stats.WorkUnits() > limit {
		lv.err = fmt.Errorf("%w after %d units", ErrWorkLimit, w.stats.WorkUnits())
		return false
	}
	return true
}

// canceled is the error a level ends with once it finds ctx ended. It is
// a function of its own so that visit's frame, on every set's call
// chain, does not hold fmt.Errorf's arguments.
func canceled(ctx context.Context, k int) error {
	return fmt.Errorf("dp: canceled at cardinality %d: %w", k, context.Cause(ctx))
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

// Engine exposes the dynamic program one cardinality level at a time, so
// that schedulers other than the straight Algorithm 2 loop — in
// particular the SMA baseline, which runs each level as one round of
// tasks spread over its workers — drive the exact same plan generation
// and pruning logic.
type Engine struct {
	w       worker
	helpers []worker // the workers of Options.Helpers
}

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
	eng := &Engine{w: worker{q: q, cs: cs, index: cs.Index(), opts: opts}}
	w := &eng.w
	w.rule, w.alpha = opts.Pruner.rule()
	if w.rule == ruleSingleBest && opts.InterestingOrders {
		w.rule = ruleOrderAware
	}
	w.single = w.rule == ruleSingleBest
	// The memo, the arena, the records and the scan entries are borrowed
	// from the runtime (and reset), so a worker recycles them across the
	// queries of a batch.
	rt := opts.Runtime
	if rt == nil {
		rt = NewRuntime()
	}
	w.borrow(rt)
	w.memo = rt.memoFor(slots)
	w.scans = rt.scansFor(n)
	for t := 0; t < n; t++ {
		sp := w.arena.Scan(opts.Model, q, t)
		e := &w.scans[t]
		*e = entry{card: sp.Card, cardHi: sp.Card, nbr: q.Neighbors(sp.Tables)}
		e.f.Append(sp)
		e.setSortTerms(&w.opts.Model)
		w.stats.PlansKept++
		w.stats.MemoEntries++
	}
	w.enum = cs.NewEnumerator()
	if cs.Space == partition.Bushy {
		w.splitter = cs.NewSplitter()
	}
	// A helper starts as the worker before its first set: the same
	// query, partition, memo, scans and read-only enumerator, with the
	// memory the runtime keeps for it and its own counters. Only a helper
	// asks Release.
	eng.helpers = make([]worker, opts.Helpers)
	for i := range eng.helpers {
		h := &eng.helpers[i]
		*h = *w
		h.stats = plan.Stats{}
		h.borrow(rt.helper(i))
	}
	w.opts.Release = nil
	return eng, nil
}

// borrow makes rt's arena, spill slabs, records and keys the worker's,
// reset.
func (w *worker) borrow(rt *Runtime) {
	w.arena = &rt.arena
	w.arena.Reset()
	rt.spills.reset()
	w.spills = &rt.spills
	rt.recs, rt.keys = rt.recs[:0], rt.keys[:0]
	w.recs, w.keys = &rt.recs, &rt.keys
}

// ProcessSet treats one admissible join result — a set of two or more
// tables that the partition's Enumerator yields — as Level does, and
// returns the work units it cost. Sets must be processed in
// non-decreasing cardinality. Any other set has no memo slot of its own;
// passing one is a bug in the caller and panics. The bench module's walk
// is its only caller, until it moves to Level and ProcessSet goes.
func (e *Engine) ProcessSet(u bitset.Set) uint64 {
	if u.Count() < 2 || !e.w.q.All().ContainsAll(u) || !e.w.cs.Admissible(u) {
		panic(fmt.Sprintf("dp: ProcessSet(%v): not an admissible join result of partition %s", u, e.w.cs.Describe()))
	}
	return e.w.process(u, e.w.index.Of(u))
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

// Stats returns the cumulative work counters so far, summed over the
// workers. Each memo slot is stored by one worker, so MemoEntries is a
// sum too, not plan.Stats.Add's maximum.
func (e *Engine) Stats() plan.Stats {
	s := e.w.stats
	for i := range e.helpers {
		h := e.helpers[i].stats
		memo := s.MemoEntries + h.MemoEntries
		s.Add(h)
		s.MemoEntries = memo
	}
	return s
}

// Finish validates that a complete plan exists and returns the result.
// The surviving root plans are deep-copied out of the arena into one
// heap slab (plan.CloneTrees): the Result then shares no memory with
// the engine, so a pooled Runtime can be recycled (and the arena's
// slabs are not pinned by a handful of returned plans).
func (e *Engine) Finish() (*Result, error) {
	q := e.w.q
	root := e.w.lookup(q.All())
	if root.f.Len() == 0 {
		return nil, fmt.Errorf("dp: no complete plan found (n=%d, partition %s)", q.N(), e.w.cs.Describe())
	}
	res := &Result{Plans: root.f.Slice(), Stats: e.Stats()}
	plan.CloneTrees(res.Plans)
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
	spills   *spillArena // the memo frontiers' spilled plan pointers
	stats    plan.Stats
	splitter *partition.Splitter
	predBuf  []int
	// single: the rule is SingleBest, whose survivor is pend. offer
	// tests this flag rather than rule so that SingleBest's branch
	// compiles as it did before the rules were closed: that path is
	// sensitive to code layout (docs/perf.md §12).
	single bool
	// gone is set on a helper once Options.Release has let it go.
	gone bool
	pend record
	// alpha is Pareto's clamped factor, and 1 under the other rules.
	alpha float64
	// le and re are the operand entries of the split under evaluation.
	le, re *entry
	// scratch is the entry under construction. It lives in the worker —
	// not on trySplits' stack — so its frontier keeps its spill capacity
	// from one set to the next.
	scratch entry
	// rule is the resolved Pruner. recs are the records the order-aware
	// rule and Pareto keep for the set under construction, in frontier
	// order, and keys their costs and second metrics, index for index:
	// the runtime's slices, whose capacity is recycled across runs.
	rule rule
	recs *[]record
	keys *[]key
	enum *partition.Enumerator
	lv   level
	// afterKeep, if not nil, is called once a kept candidate's record is
	// written. Only tests set it, to check that the keys mirror the
	// records.
	afterKeep func(*worker)
}

// record is an admitted candidate of the set under construction: the
// arguments its plan.Node is built from once the set is complete. In
// pend, lp is nil until a candidate is admitted, and cost is NaN then,
// which the whole-pair skip never passes. second, the candidate's
// second metric, is filled under Pareto only, whose admission reads it;
// under the other rules build computes it for survivors alone. The
// scalars the rules compare come first, and alg and pred are narrowed,
// so that a record is 64 bytes: one cache line, moved without a
// runtime.duffcopy call.
type record struct {
	cost, second     float64
	order            int
	lp, rp           *plan.Node
	le, re           *entry
	pred             int32
	alg              uint8 // a cost.JoinAlg
	lSorted, rSorted bool
}

// key is a record's cost and second metric, kept in a slice of its own
// beside the records, index for index, so that the Pareto rule's scans
// read 16 bytes a record.
type key struct{ cost, second float64 }

// lookup returns the entry of s, a single table or an admissible join
// result; an empty frontier means no plan is known for s.
func (w *worker) lookup(s bitset.Set) *entry { return w.lookupRank(s, w.index.Of(s)) }

// lookupRank is lookup for a set whose slot rank = Index.Of(s) the
// partition layer handed over with it; a singleton's rank is not read.
// It is the per-split hot path and written to fit the compiler's
// inlining budget.
func (w *worker) lookupRank(s bitset.Set, rank int) *entry {
	if s&(s-1) == 0 {
		return &w.scans[bits.TrailingZeros64(uint64(s))]
	}
	return &w.memo[rank]
}

// process treats join result u, whose memo slot is rank, and returns the
// work units it cost.
func (w *worker) process(u bitset.Set, rank int) uint64 {
	before := w.stats.WorkUnits()
	w.trySplits(u, rank)
	return w.stats.WorkUnits() - before
}

// trySplits generates and prunes all plans for join result u, whose memo
// slot is rank (Algorithm 5, both variants). The entry is assembled in
// the worker's scratch slot and stored by value once complete; operand
// entries are read in place, at the slots the partition layer computes
// along with the operands.
func (w *worker) trySplits(u bitset.Set, rank int) {
	w.stats.SetsProcessed++
	e := &w.scratch
	e.card = -1
	e.f.reset()
	w.pend.lp, w.pend.cost = nil, math.NaN()
	if w.rule == rulePareto && !w.opts.InterestingOrders {
		w.paretoSplits(u, rank)
	} else if w.cs.Space == partition.Linear {
		for rem := u; rem != 0; rem &= rem - 1 {
			t := bits.TrailingZeros64(uint64(rem))
			if !w.cs.InnerAllowed(u, t) {
				continue
			}
			inner := rem & -rem
			outer := u &^ inner
			le := w.lookupRank(outer, rank-w.index.Step(t))
			if le.f.Len() == 0 {
				continue
			}
			w.combine(outer, inner, le, &w.scans[t])
		}
	} else {
		w.splitter.ForEachSplit(u, func(left bitset.Set, lrank, rrank int) {
			right := u.Minus(left)
			le, re := w.lookupRank(left, lrank), w.lookupRank(right, rrank)
			if le.f.Len() == 0 || re.f.Len() == 0 {
				return
			}
			w.combine(left, right, le, re)
		})
	}
	if p := &w.pend; p.lp != nil {
		w.build(p)
	} else if recs := *w.recs; len(recs) > 0 {
		for i := range recs {
			w.build(&recs[i])
		}
		*w.recs, *w.keys = recs[:0], (*w.keys)[:0]
	}
	if e.f.Len() == 0 {
		return
	}
	e.setSortTerms(&w.opts.Model)
	slot := &w.memo[rank]
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
func (w *worker) paretoSplits(u bitset.Set, rank int) {
	if w.cs.Space == partition.Linear {
		for rem := u; rem != 0; rem &= rem - 1 {
			t := bits.TrailingZeros64(uint64(rem))
			if !w.cs.InnerAllowed(u, t) {
				continue
			}
			outer := u &^ (rem & -rem)
			if le := w.lookupRank(outer, rank-w.index.Step(t)); le.f.Len() > 0 {
				w.combinePareto(outer, rem&-rem, le, &w.scans[t])
			}
		}
		return
	}
	w.splitter.ForEachSplit(u, func(left bitset.Set, lrank, rrank int) {
		right := u.Minus(left)
		if le, re := w.lookupRank(left, lrank), w.lookupRank(right, rrank); le.f.Len() > 0 && re.f.Len() > 0 {
			w.combinePareto(left, right, le, re)
		}
	})
}

// combine generates candidate plans for every operand-plan pair and join
// algorithm of the split (left, right) and offers them to the rule.
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
			// pend.cost stays NaN, skipping nothing, under the other rules.
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

// combinePareto is combine for the Pareto rule without interesting
// orders, where every plan has no order. The operators' second metrics
// are formed once per split too, by the calls secondMetric makes, and
// each candidate goes through offerPareto. A pair whose bound —
// the cheapest operator's cost and the smallest second metric, each
// rounded as a candidate's is — is α-dominated by a retained plan has
// every candidate dominated, so its k candidates are counted as pruned
// unoffered (docs/perf.md §11).
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

// admits reports whether no record of the set under construction
// α-dominates a candidate of cost c, second metric second and order
// order: at most α times as expensive in both metrics, with an order
// that can substitute for the candidate's. It is the rule of
// offerFrontier, which interesting orders take; without them Pareto
// asks dominated.
func (w *worker) admits(c, second float64, order int) bool {
	recs, a := *w.recs, w.alpha
	for i := range recs {
		if r := &recs[i]; r.cost <= a*c && r.second <= a*second && orderDominates(r.order, order) {
			return false
		}
	}
	return true
}

// dominated is admits without the order test, for the Pareto rule
// without interesting orders, where every plan has no order: whether a
// key of the set under construction α-dominates a candidate of cost c
// and second metric second. It scans the keys alone, and without a
// branch: a set holds three or four keys on average, so reading all of
// them costs less than the mispredicted exits a data-dependent test
// would take.
func (w *worker) dominated(c, second float64) bool {
	ac, as := w.alpha*c, w.alpha*second
	var d uint8
	for _, k := range *w.keys {
		d |= b2u(k.cost <= ac) & b2u(k.second <= as)
	}
	return d != 0
}

// b2u is 1 for true and 0 for false; the compiler emits a SETcc.
func b2u(b bool) uint8 {
	if b {
		return 1
	}
	return 0
}

// offerPareto is offer for combinePareto's candidates, and for Prune's
// plans under Pareto: dominated, then keep.
func (w *worker) offerPareto(lp, rp *plan.Node, alg cost.JoinAlg, order int, c, second float64) {
	if w.dominated(c, second) {
		w.stats.PlansPruned++
		return
	}
	*w.keep(c, second, order) = record{cost: c, second: second, order: order, lp: lp, rp: rp, pred: plan.NoPred, alg: uint8(alg)}
	if w.afterKeep != nil {
		w.afterKeep(w)
	}
}

// keep makes room for an admitted candidate of cost c, second metric
// second and order order in the set under construction, and returns the
// record the caller writes it into, once. It first evicts, in place and
// in order, the records the candidate dominates exactly: at most as
// expensive in both metrics, and its order can substitute. Under the
// order-aware rule, whose records' second metrics are all zero, that is
// that rule's own test. The records before the first evicted one stay
// where they are; the later survivors move down. The candidate goes
// last, so the frontier keeps admission order, and its key with it.
func (w *worker) keep(c, second float64, order int) *record {
	recs, keys := *w.recs, *w.keys
	n := len(keys)
	for i := range keys {
		if evicts(c, second, order, keys[i], &recs[i]) {
			n = i
			for i++; i < len(keys); i++ {
				if !evicts(c, second, order, keys[i], &recs[i]) {
					keys[n], recs[n] = keys[i], recs[i]
					n++
				}
			}
			break
		}
	}
	*w.keys = append(keys[:n], key{c, second})
	recs = slices.Grow(recs[:n], 1)[:n+1]
	*w.recs = recs
	w.stats.PlansKept++
	return &recs[n]
}

// evicts reports whether a candidate of cost c, second metric second
// and order order dominates record q, whose key is k, exactly. The
// record's order is read only once the key's metrics are dominated.
func evicts(c, second float64, order int, k key, q *record) bool {
	return c <= k.cost && second <= k.second && orderDominates(order, q.order)
}

// build materializes record r of the set under construction in the
// memo's arena, with the scalars plan.JoinScalars(Robust) gives it, and
// appends it to the set's frontier: a Pareto record carries its second
// metric, any other gets it here, by secondMetric over its own split.
func (w *worker) build(r *record) {
	second := r.second
	if w.rule != rulePareto {
		w.le, w.re = r.le, r.re
		second = w.secondMetric(r.lp, r.rp, cost.JoinAlg(r.alg), r.lSorted, r.rSorted)
	}
	e := &w.scratch
	spec := plan.JoinSpec{Alg: cost.JoinAlg(r.alg), OutCard: e.card, Pred: int(r.pred), Order: r.order, LSorted: r.lSorted, RSorted: r.rSorted}
	e.f.Append(w.arena.JoinWithScalars(r.lp, r.rp, spec, r.cost, second))
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

// offer applies the rule to one candidate join of cost c, on its scalars
// alone. Under SingleBest an admitted candidate — a new strict minimum —
// replaces pend; the other rules go to offerFrontier.
func (w *worker) offer(lp, rp *plan.Node, alg cost.JoinAlg, pred, order int, lSorted, rSorted bool, c float64) {
	if w.single {
		p := &w.pend
		if p.lp != nil && !(c < p.cost) {
			w.stats.PlansPruned++
			return
		}
		// Field by field: a composite literal compiles to a block copy.
		p.lp, p.rp, p.le, p.re = lp, rp, w.le, w.re
		p.alg, p.pred, p.order, p.lSorted, p.rSorted, p.cost = uint8(alg), int32(pred), order, lSorted, rSorted, c
		w.stats.PlansKept++
		return
	}
	w.offerFrontier(lp, rp, alg, pred, order, lSorted, rSorted, c)
}

// offerFrontier is offer under the order-aware rule and Pareto: an
// admitted candidate is kept. The order-aware rule is Pareto's at α = 1
// with every second metric left zero, so only Pareto computes one per
// candidate. It is a function of its own so that SingleBest's offer
// stays small.
func (w *worker) offerFrontier(lp, rp *plan.Node, alg cost.JoinAlg, pred, order int, lSorted, rSorted bool, c float64) {
	var second float64
	if w.rule == rulePareto {
		second = w.secondMetric(lp, rp, alg, lSorted, rSorted)
	}
	if !w.admits(c, second, order) {
		w.stats.PlansPruned++
		return
	}
	*w.keep(c, second, order) = record{cost: c, second: second, order: order, lp: lp, rp: rp, le: w.le, re: w.re,
		pred: int32(pred), alg: uint8(alg), lSorted: lSorted, rSorted: rSorted}
	if w.afterKeep != nil {
		w.afterKeep(w)
	}
}
