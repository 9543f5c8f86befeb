package dp

import (
	"context"
	"errors"
	"math"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"mpq/internal/bitset"
	"mpq/internal/brute"
	"mpq/internal/cost"
	"mpq/internal/partition"
	"mpq/internal/plan"
	"mpq/internal/query"
	"mpq/internal/workload"
)

const costEps = 1e-9

func approx(a, b float64) bool {
	return math.Abs(a-b) <= costEps*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

func genQuery(t testing.TB, n int, shape workload.Shape, seed int64) *query.Query {
	t.Helper()
	return workload.MustGenerate(workload.NewParams(n, shape), seed)
}

// run is RunContext without a deadline; on partition.Unconstrained it
// is the classical serial algorithm.
func run(q *query.Query, cs *partition.ConstraintSet, opts Options) (*Result, error) {
	return RunContext(context.Background(), q, cs, opts)
}

func TestSerialMatchesBruteForceLinear(t *testing.T) {
	for _, shape := range workload.Shapes {
		for seed := int64(0); seed < 4; seed++ {
			q := genQuery(t, 6, shape, seed)
			for _, orders := range []bool{false, true} {
				res, err := run(q, partition.Unconstrained(partition.Linear, q.N()), Options{InterestingOrders: orders})
				if err != nil {
					t.Fatal(err)
				}
				best := Prune(SingleBest{}, res.Plans)[0]
				want := brute.BestCost(q, partition.Linear, brute.Options{InterestingOrders: orders})
				if !approx(best.Cost, want) {
					t.Fatalf("%v seed=%d orders=%v: DP cost %g, brute force %g", shape, seed, orders, best.Cost, want)
				}
				if !best.IsLeftDeep() {
					t.Fatalf("linear DP returned bushy plan %v", best)
				}
				if err := best.Validate(q, cost.Default()); err != nil {
					t.Fatalf("invalid plan: %v", err)
				}
			}
		}
	}
}

func TestSerialMatchesBruteForceBushy(t *testing.T) {
	for _, shape := range workload.Shapes {
		for seed := int64(0); seed < 4; seed++ {
			q := genQuery(t, 5, shape, seed)
			for _, orders := range []bool{false, true} {
				res, err := run(q, partition.Unconstrained(partition.Bushy, q.N()), Options{InterestingOrders: orders})
				if err != nil {
					t.Fatal(err)
				}
				best := Prune(SingleBest{}, res.Plans)[0]
				want := brute.BestCost(q, partition.Bushy, brute.Options{InterestingOrders: orders})
				if !approx(best.Cost, want) {
					t.Fatalf("%v seed=%d orders=%v: DP cost %g, brute force %g", shape, seed, orders, best.Cost, want)
				}
				if err := best.Validate(q, cost.Default()); err != nil {
					t.Fatalf("invalid plan: %v", err)
				}
			}
		}
	}
}

// The core correctness property of the paper: for every worker count m,
// the minimum over partition-optimal plans equals the serial optimum
// (partitions tile the plan space).
func TestPartitionsTileThePlanSpace(t *testing.T) {
	cases := []struct {
		space partition.Space
		n     int
		ms    []int
	}{
		{partition.Linear, 6, []int{1, 2, 4, 8}},
		{partition.Linear, 7, []int{2, 8}},
		{partition.Bushy, 6, []int{1, 2, 4}},
		{partition.Bushy, 7, []int{2, 4}},
	}
	for _, c := range cases {
		for _, shape := range []workload.Shape{workload.Star, workload.Chain} {
			for seed := int64(0); seed < 3; seed++ {
				q := genQuery(t, c.n, shape, seed)
				serial, err := run(q, partition.Unconstrained(c.space, q.N()), Options{})
				if err != nil {
					t.Fatal(err)
				}
				for _, m := range c.ms {
					best := math.Inf(1)
					for partID := 0; partID < m; partID++ {
						cs, err := partition.ForPartition(c.space, c.n, partID, m)
						if err != nil {
							t.Fatal(err)
						}
						res, err := run(q, cs, Options{})
						if err != nil {
							t.Fatal(err)
						}
						p := res.Plans[0]
						if err := p.Validate(q, cost.Default()); err != nil {
							t.Fatalf("partition %d/%d returned invalid plan: %v", partID, m, err)
						}
						if !brute.RespectsConstraints(p, cs) {
							t.Fatalf("partition %d/%d returned plan violating its constraints: %v", partID, m, p)
						}
						if p.Cost < best {
							best = p.Cost
						}
					}
					if !approx(best, serial.Plans[0].Cost) {
						t.Fatalf("%v n=%d m=%d %v seed=%d: partition best %g != serial %g",
							c.space, c.n, m, shape, seed, best, serial.Plans[0].Cost)
					}
				}
			}
		}
	}
}

// Each partition's optimum equals the brute-force optimum over exactly
// the plans whose intermediate results are admissible in that partition.
func TestPartitionOptimumMatchesConstrainedBruteForce(t *testing.T) {
	q := genQuery(t, 5, workload.Star, 7)
	for _, space := range []partition.Space{partition.Linear, partition.Bushy} {
		m := 2
		if space == partition.Linear {
			m = 4
		}
		all := brute.AllPlans(q, space, brute.Options{})
		for partID := 0; partID < m; partID++ {
			cs, err := partition.ForPartition(space, 5, partID, m)
			if err != nil {
				t.Fatal(err)
			}
			res, err := run(q, cs, Options{})
			if err != nil {
				t.Fatal(err)
			}
			inPart := brute.Filter(all, func(p *plan.Node) bool {
				return brute.RespectsConstraints(p, cs)
			})
			if len(inPart) == 0 {
				t.Fatalf("%v partition %d admits no plans", space, partID)
			}
			want := math.Inf(1)
			for _, p := range inPart {
				if p.Cost < want {
					want = p.Cost
				}
			}
			if !approx(res.Plans[0].Cost, want) {
				t.Fatalf("%v partition %d/%d: DP %g, constrained brute force %g",
					space, partID, m, res.Plans[0].Cost, want)
			}
		}
	}
}

// Every complete plan of the space is admissible in at least one
// partition (plan-level coverage, complementing the set-level test in
// package partition).
func TestEveryPlanCoveredBySomePartition(t *testing.T) {
	q := genQuery(t, 5, workload.Chain, 3)
	for _, tc := range []struct {
		space partition.Space
		m     int
	}{{partition.Linear, 4}, {partition.Bushy, 2}} {
		var css []*partition.ConstraintSet
		for partID := 0; partID < tc.m; partID++ {
			cs, err := partition.ForPartition(tc.space, 5, partID, tc.m)
			if err != nil {
				t.Fatal(err)
			}
			css = append(css, cs)
		}
		for _, p := range brute.AllPlans(q, tc.space, brute.Options{}) {
			covered := false
			for _, cs := range css {
				if brute.RespectsConstraints(p, cs) {
					covered = true
					break
				}
			}
			if !covered {
				t.Fatalf("%v m=%d: plan %v not covered by any partition", tc.space, tc.m, p)
			}
		}
	}
}

func TestStatsAccounting(t *testing.T) {
	q := genQuery(t, 8, workload.Star, 1)
	cs := partition.Unconstrained(partition.Linear, 8)
	res, err := run(q, cs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Unconstrained linear: 2^8 - 8 - 1 sets of cardinality >= 2.
	wantSets := uint64(1<<8 - 8 - 1)
	if res.Stats.SetsProcessed != wantSets {
		t.Fatalf("SetsProcessed = %d want %d", res.Stats.SetsProcessed, wantSets)
	}
	// Splits: for each set of cardinality k, k inner candidates.
	var wantSplits uint64
	for k := 2; k <= 8; k++ {
		wantSplits += uint64(k) * uint64(binom(8, k))
	}
	if res.Stats.SplitsTried != wantSplits {
		t.Fatalf("SplitsTried = %d want %d", res.Stats.SplitsTried, wantSplits)
	}
	if res.Stats.MemoEntries != uint64(1<<8-1) {
		t.Fatalf("MemoEntries = %d want %d", res.Stats.MemoEntries, 1<<8-1)
	}
	want := wantSets + wantSplits + res.Stats.PlansKept + res.Stats.PlansPruned
	if res.Stats.WorkUnits() != want {
		t.Fatalf("WorkUnits = %d want %d", res.Stats.WorkUnits(), want)
	}
	// Every generated plan is either kept or pruned; per split up to
	// three operators are tried.
	generated := res.Stats.PlansKept + res.Stats.PlansPruned
	if generated < 2*wantSplits || generated > 3*wantSplits+uint64(8) {
		t.Fatalf("generated plans %d outside [2, 3] x splits %d", generated, wantSplits)
	}
}

// Theorem 6's driver: the per-worker set count shrinks by exactly 3/4
// per constraint (memo entries shrink accordingly).
func TestPartitioningReducesWork(t *testing.T) {
	q := genQuery(t, 10, workload.Star, 2)
	var prevSets uint64
	for _, m := range []int{1, 2, 4, 8, 16, 32} {
		cs, err := partition.ForPartition(partition.Linear, 10, m-1, m)
		if err != nil {
			t.Fatal(err)
		}
		res, err := run(q, cs, Options{})
		if err != nil {
			t.Fatal(err)
		}
		sets := res.Stats.SetsProcessed
		if m > 1 {
			// sets(m) / sets(m/2) == 3/4 exactly for counts of sets with
			// cardinality >= 2 only up to the excluded singletons; compare
			// against the closed-form count instead.
			_ = prevSets
		}
		adm := cs.CountAdmissible()
		// Admissible sets include the empty set and some singletons,
		// which the DP does not process.
		small := uint64(0)
		for _, b := range cs.AdmissibleSets()[:2] {
			small += uint64(len(b))
		}
		if sets != adm-small {
			t.Fatalf("m=%d: processed %d sets, admissible %d minus %d small = %d",
				m, sets, adm, small, adm-small)
		}
		prevSets = sets
	}
}

func TestWorkerMemoryDecreasesWithParallelism(t *testing.T) {
	q := genQuery(t, 12, workload.Star, 5)
	var prev uint64 = math.MaxUint64
	for _, m := range []int{1, 4, 16, 64} {
		cs, err := partition.ForPartition(partition.Linear, 12, 0, m)
		if err != nil {
			t.Fatal(err)
		}
		res, err := run(q, cs, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.MemoEntries >= prev {
			t.Fatalf("m=%d: memo %d did not shrink from %d", m, res.Stats.MemoEntries, prev)
		}
		prev = res.Stats.MemoEntries
	}
}

func TestOrderAwarePrunerInvariants(t *testing.T) {
	q := genQuery(t, 6, workload.Chain, 9)
	res, err := run(q, partition.Unconstrained(partition.Linear, q.N()), Options{InterestingOrders: true})
	if err != nil {
		t.Fatal(err)
	}
	// No retained plan may dominate another.
	for i, p := range res.Plans {
		for j, o := range res.Plans {
			if i == j {
				continue
			}
			if o.Cost <= p.Cost && orderDominates(o.Order, p.Order) && (o.Cost < p.Cost || o.Order != p.Order) {
				t.Fatalf("retained plan %d dominates plan %d", j, i)
			}
		}
	}
	// Orders can only help: the order-aware best must not exceed the
	// order-blind best.
	blind, err := run(q, partition.Unconstrained(partition.Linear, q.N()), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if best := Prune(SingleBest{}, res.Plans)[0]; best.Cost > blind.Plans[0].Cost+costEps {
		t.Fatalf("order-aware best %g worse than order-blind %g", best.Cost, blind.Plans[0].Cost)
	}
}

func TestRunValidation(t *testing.T) {
	q := genQuery(t, 6, workload.Star, 0)
	csWrongN := partition.Unconstrained(partition.Linear, 5)
	if _, err := run(q, csWrongN, Options{}); err == nil {
		t.Error("mismatched constraint set accepted")
	}
	bad := query.MustNew([]query.Table{{Cardinality: 1}, {Cardinality: 2}})
	bad.Preds = append(bad.Preds, query.Predicate{Left: 0, Right: 0, Selectivity: 0.5})
	if _, err := run(bad, partition.Unconstrained(partition.Linear, 2), Options{}); err == nil {
		t.Error("invalid query accepted")
	}
	if _, err := run(q, partition.Unconstrained(partition.Linear, 6), Options{
		Model: cost.Model{HashFactor: -1, SortFactor: 1, NLBlock: 1},
	}); err == nil {
		t.Error("invalid cost model accepted")
	}
}

func TestSingleTableQuery(t *testing.T) {
	q := query.MustNew([]query.Table{{Name: "only", Cardinality: 42}})
	res, err := run(q, partition.Unconstrained(partition.Linear, q.N()), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if p := res.Plans[0]; !p.IsScan || p.Card != 42 {
		t.Fatalf("single-table plan = %+v", p)
	}
}

func TestTwoTableQuery(t *testing.T) {
	q := query.MustNew([]query.Table{{Cardinality: 100}, {Cardinality: 10}})
	q.MustAddPredicate(query.Predicate{Left: 0, Right: 1, Selectivity: 0.1})
	q.Freeze()
	for _, space := range []partition.Space{partition.Linear, partition.Bushy} {
		res, err := run(q, partition.Unconstrained(space, q.N()), Options{})
		if err != nil {
			t.Fatal(err)
		}
		best := res.Plans[0]
		if best.CountJoins() != 1 {
			t.Fatalf("%v: joins = %d", space, best.CountJoins())
		}
		// Both join orders and all operators were considered: best cost
		// is min over 2 orders x 3 algs (SMJ has a predicate).
		want := brute.BestCost(q, space, brute.Options{})
		if !approx(best.Cost, want) {
			t.Fatalf("%v: cost %g want %g", space, best.Cost, want)
		}
	}
}

// SingleBest keeps the cheapest candidate as its one record: a cheaper
// one replaces it, a dearer one is pruned, and so is an equally cheap
// one (strict minimum).
func TestSingleBestKeepsCheapest(t *testing.T) {
	q := genQuery(t, 4, workload.Star, 0)
	a := plan.Scan(cost.Default(), q, 0)
	b := plan.Scan(cost.Default(), q, 1)
	inner := plan.Scan(cost.Default(), q, 2)
	w := &worker{single: true}
	offer := func(lp *plan.Node, c float64) bool {
		kept := w.stats.PlansKept
		w.offer(lp, inner, cost.Hash, plan.NoPred, query.NoOrder, false, false, c)
		return w.stats.PlansKept > kept
	}
	if !offer(a, 10) || w.pend.lp != a {
		t.Fatal("first candidate not kept")
	}
	if !offer(b, 5) || w.pend.lp != b || w.pend.cost != 5 {
		t.Fatal("cheaper plan should replace")
	}
	if offer(a, 20) || w.pend.lp != b {
		t.Fatal("more expensive plan should be pruned")
	}
	if offer(a, 5) || w.pend.lp != b {
		t.Fatal("equal-cost plan should be pruned (strict minimum)")
	}
}

func binom(n, k int) int {
	if k < 0 || k > n {
		return 0
	}
	r := 1
	for i := 0; i < k; i++ {
		r = r * (n - i) / (i + 1)
	}
	return r
}

// RunContext aborts between cardinality levels (and periodically
// within one) once the context is canceled, wrapping the cause.
func TestRunContextCanceled(t *testing.T) {
	q := genQuery(t, 14, workload.Clique, 0)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := RunContext(ctx, q, partition.Unconstrained(partition.Linear, q.N()), Options{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// Mid-run: cancel shortly after the search starts.
	ctx, cancel = context.WithCancel(context.Background())
	timer := time.AfterFunc(2*time.Millisecond, cancel)
	defer timer.Stop()
	if _, err := RunContext(ctx, q, partition.Unconstrained(partition.Linear, q.N()), Options{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-run err = %v, want context.Canceled", err)
	}
	cancel()
	// A background context changes nothing.
	res, err := RunContext(context.Background(), genQuery(t, 6, workload.Star, 1),
		partition.Unconstrained(partition.Linear, 6), Options{})
	if err != nil || len(res.Plans) == 0 {
		t.Fatalf("background run: %v", err)
	}
}

// Level's contract, deterministically: an fn that returns false ends the
// level with nil and leaves the later sets untreated; a context canceled
// inside fn ends the level within cancelPollInterval further sets; a work
// meter past MaxWorkUnits ends it with ErrWorkLimit.
func TestLevelContract(t *testing.T) {
	q := genQuery(t, 14, workload.Clique, 0)
	cs := partition.Unconstrained(partition.Linear, q.N())
	bg := context.Background()
	eng, err := NewEngine(q, cs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	calls := 0
	if err := eng.Level(bg, 2, func(bitset.Set, uint64) bool { calls++; return calls < 10 }); err != nil {
		t.Fatalf("stopped level: %v", err)
	}
	if got := eng.Stats().SetsProcessed; calls != 10 || got != 10 {
		t.Fatalf("fn stopped the level at set 10, but fn ran %d times and %d sets were treated", calls, got)
	}

	if eng, err = NewEngine(q, cs, Options{}); err != nil {
		t.Fatal(err)
	}
	for k := 2; k < 7; k++ {
		if err := eng.Level(bg, k, nil); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithCancel(bg)
	defer cancel()
	before, calls := eng.Stats().SetsProcessed, 0
	err = eng.Level(ctx, 7, func(bitset.Set, uint64) bool {
		if calls++; calls == 100 {
			cancel()
		}
		return true
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("level canceled inside fn: err = %v, want context.Canceled", err)
	}
	if got := eng.Stats().SetsProcessed - before; got < 100 || got > 100+cancelPollInterval {
		t.Fatalf("canceled at set 100 of %d, but the level treated %d sets", binom(14, 7), got)
	}

	if eng, err = NewEngine(q, cs, Options{MaxWorkUnits: 5000}); err != nil {
		t.Fatal(err)
	}
	if err := eng.RunAll(); !errors.Is(err, ErrWorkLimit) {
		t.Fatalf("MaxWorkUnits 5000: err = %v, want ErrWorkLimit", err)
	}

	t.Run("width 2", func(t *testing.T) { checkWideLevelContract(t, q, cs) })
}

// midLevelCtx is a context whose third Err call — a worker's first poll
// inside a level of two workers, after each checked ctx as it started —
// hands the level over to another goroutine, which cancels the parent,
// and returns once it has.
type midLevelCtx struct {
	context.Context
	calls    atomic.Int32
	polled   chan struct{}
	canceled chan struct{}
}

func (c *midLevelCtx) Err() error {
	if c.calls.Add(1) == 3 {
		close(c.polled)
		<-c.canceled
	}
	return c.Context.Err()
}

// checkWideLevelContract is Level's contract on an engine of width 2:
// a cancel from another goroutine in the middle of a level ends it with
// context.Canceled before the level is done; MaxWorkUnits gives
// ErrWorkLimit, also when only the workers' summed meter passes it; a
// helper that Options.Release lets go mid-level asks no more; and no
// helper goroutine outlives Level.
func checkWideLevelContract(t *testing.T, q *query.Query, cs *partition.ConstraintSet) {
	baseline := runtime.NumGoroutine()
	bg := context.Background()
	wide := func(limit uint64) *Engine {
		eng, err := NewEngine(q, cs, Options{MaxWorkUnits: limit, Helpers: 1})
		if err != nil {
			t.Fatal(err)
		}
		return eng
	}
	eng := wide(0)
	for k := 2; k < 7; k++ {
		if err := eng.Level(bg, k, nil); err != nil {
			t.Fatal(err)
		}
	}
	parent, cancel := context.WithCancel(bg)
	ctx := &midLevelCtx{Context: parent, polled: make(chan struct{}), canceled: make(chan struct{})}
	go func() {
		<-ctx.polled
		cancel()
		close(ctx.canceled)
	}()
	before := eng.Stats().SetsProcessed
	if err := eng.Level(ctx, 7, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("level canceled mid-way: err = %v, want context.Canceled", err)
	}
	if got := eng.Stats().SetsProcessed - before; got >= uint64(binom(14, 7)) {
		t.Fatalf("canceled mid-level, but the level treated all %d sets", got)
	}

	if err := wide(5000).RunAll(); !errors.Is(err, ErrWorkLimit) {
		t.Fatalf("MaxWorkUnits 5000: err = %v, want ErrWorkLimit", err)
	}
	// The whole run's work less one unit: the sum passes it only at the
	// last set, where the workers' own meters need not, and the barrier
	// still catches it.
	eng = wide(0)
	if err := eng.RunAll(); err != nil {
		t.Fatal(err)
	}
	total := eng.Stats().WorkUnits()
	if err := wide(total).RunAll(); err != nil {
		t.Fatalf("MaxWorkUnits at the run's own work: %v", err)
	}
	if err := wide(total - 1).RunAll(); !errors.Is(err, ErrWorkLimit) {
		t.Fatalf("MaxWorkUnits one below the run's work: err = %v, want ErrWorkLimit", err)
	}

	var asks atomic.Int32
	eng = wide(0)
	eng.helpers[0].opts.Release = func() bool { return asks.Add(1) > 2 }
	if err := eng.RunAll(); err != nil {
		t.Fatal(err)
	}
	if got := eng.Stats(); got.WorkUnits() != total || got.SetsProcessed != uint64(1<<q.N()-q.N()-1) {
		t.Fatalf("a helper let go mid-run: %d units over %d sets, want %d units over every set", got.WorkUnits(), got.SetsProcessed, total)
	}
	if got := asks.Load(); got != 3 {
		t.Fatalf("a helper let go at its third ask asked %d times", got)
	}

	for i := 0; runtime.NumGoroutine() > baseline; i++ {
		if i == 2000 {
			t.Fatalf("%d goroutines before, %d after", baseline, runtime.NumGoroutine())
		}
		time.Sleep(time.Millisecond)
	}
}

// BenchmarkJobClasses runs the dynamic program on the job classes of
// the bench/ workloads — serial-large's linear-16 and bushy-12, alone
// and at width w = 2 (one helper), one constrained partition of
// each, an interesting-orders run, a serial 8-table job at both widths,
// one of serve-zipf8's 50 µs partitions, tcp-mo12's multi-objective
// partitions, and the bushy multi-objective and robust partitions that
// run the same Pareto loop — on reused Runtimes, as every engine does,
// and reports nanoseconds per work unit. It is the instrument for A/B-ing
// inner-loop variants while working (docs/perf.md §6 quotes it); claims
// are made with bench/.
//
//	go test ./internal/dp -run '^$' -bench JobClasses -benchtime 10x
func BenchmarkJobClasses(b *testing.B) {
	for _, c := range []struct {
		name    string
		space   partition.Space
		n, m, w int
		opts    Options
	}{
		{"linear16", partition.Linear, 16, 1, 1, Options{}},
		{"bushy12", partition.Bushy, 12, 1, 1, Options{}},
		{"linear16w2", partition.Linear, 16, 1, 2, Options{}},
		{"bushy12w2", partition.Bushy, 12, 1, 2, Options{}},
		{"linear16m8", partition.Linear, 16, 8, 1, Options{}},
		{"bushy12m8", partition.Bushy, 12, 8, 1, Options{}},
		{"linear13orders", partition.Linear, 13, 1, 1, Options{InterestingOrders: true}},
		{"linear8", partition.Linear, 8, 1, 1, Options{}},
		{"linear8w2", partition.Linear, 8, 1, 2, Options{}},
		{"linear8m2", partition.Linear, 8, 2, 1, Options{}},
		{"linear12mo", partition.Linear, 12, 4, 1, Options{Pruner: Pareto{Alpha: 2}}},
		{"bushy10mo", partition.Bushy, 10, 4, 1, Options{Pruner: Pareto{Alpha: 2}}},
		{"linear12robust", partition.Linear, 12, 4, 1, Options{Model: cost.Robust(2), Pruner: Pareto{Alpha: 1}}}, // a RobustObjective job's default band and α
	} {
		for _, shape := range []workload.Shape{workload.Star, workload.Chain, workload.Cycle} {
			b.Run(c.name+"/"+shape.String(), func(b *testing.B) {
				q := genQuery(b, c.n, shape, 1)
				cs, err := partition.ForPartition(c.space, c.n, c.m/2, c.m)
				if err != nil {
					b.Fatal(err)
				}
				opts := c.opts
				opts.Runtime = NewRuntime()
				opts.Helpers = c.w - 1
				// One untimed job grows the runtime's memo and slabs, so
				// B/op and allocs/op are the steady state also at -benchtime 1x.
				if _, err := run(q, cs, opts); err != nil {
					b.Fatal(err)
				}
				var units uint64
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					res, err := run(q, cs, opts)
					if err != nil {
						b.Fatal(err)
					}
					units = res.Stats.WorkUnits()
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(units), "ns/wu")
			})
		}
	}
}
