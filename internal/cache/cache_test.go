package cache

import (
	"bytes"
	"context"
	"math"
	"testing"

	"mpq/internal/core"
	"mpq/internal/partition"
	"mpq/internal/plan"
	"mpq/internal/query"
	"mpq/internal/wire"
	"mpq/internal/workload"
)

func genQuery(t testing.TB, n int, seed int64) *query.Query {
	t.Helper()
	_, q, err := workload.Generate(workload.NewParams(n, workload.Star), seed)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

func mustAnswer(t testing.TB, q *query.Query, spec core.JobSpec) *core.Answer {
	t.Helper()
	ans, err := core.OptimizeContext(context.Background(), q, spec)
	if err != nil {
		t.Fatal(err)
	}
	return ans
}

// TestKeyOfSensitivity: everything that can change the chosen plan must
// change the key — statistics, join graph, space, workers, objective,
// pruner flags and every cost-model knob.
func TestKeyOfSensitivity(t *testing.T) {
	c := New(Config{})
	q := genQuery(t, 7, 1)
	base := core.JobSpec{Space: partition.Linear, Workers: 4}
	baseKey := c.KeyOf(q, base)

	variants := []struct {
		name string
		spec core.JobSpec
	}{}
	add := func(name string, mut func(*core.JobSpec)) {
		s := base
		mut(&s)
		variants = append(variants, struct {
			name string
			spec core.JobSpec
		}{name, s})
	}
	add("space", func(s *core.JobSpec) { s.Space = partition.Bushy })
	add("workers", func(s *core.JobSpec) { s.Workers = 8 })
	add("objective", func(s *core.JobSpec) { s.Objective = core.MultiObjective; s.Alpha = 1 })
	add("alpha", func(s *core.JobSpec) { s.Objective = core.MultiObjective; s.Alpha = 10 })
	add("orders", func(s *core.JobSpec) { s.InterestingOrders = true })
	add("costmodel", func(s *core.JobSpec) { s.CostModel.HashFactor = 99 })
	add("robust", func(s *core.JobSpec) { s.Objective = core.RobustObjective })
	add("robustband", func(s *core.JobSpec) { s.Objective = core.RobustObjective; s.RobustBand = 3 })
	for _, v := range variants {
		if c.KeyOf(q, v.spec) == baseKey {
			t.Errorf("%s: spec change did not change the key", v.name)
		}
	}

	// A statistics change — same shape, different selectivities — must
	// change the key too.
	if c.KeyOf(genQuery(t, 7, 2), base) == baseKey {
		t.Error("different query statistics did not change the key")
	}
	// And the same (query, spec) must reproduce the identical key.
	if c.KeyOf(q, base) != baseKey {
		t.Error("KeyOf is not deterministic")
	}
}

// TestKeyOfIgnoresUnreadFields: spec pairs that differ only in a field
// the objective does not read, or in its zero value versus the value
// zero stands for, share a key — and the engine indeed returns the same
// plans for them.
func TestKeyOfIgnoresUnreadFields(t *testing.T) {
	c := New(Config{})
	q := genQuery(t, 7, 4)
	single := core.JobSpec{Space: partition.Linear, Workers: 2}
	multi := core.JobSpec{Space: partition.Linear, Workers: 2, Objective: core.MultiObjective}
	robust := core.JobSpec{Space: partition.Linear, Workers: 2, Objective: core.RobustObjective, Alpha: 2}
	with := func(s core.JobSpec, mut func(*core.JobSpec)) core.JobSpec {
		mut(&s)
		return s
	}
	for name, pair := range map[string][2]core.JobSpec{
		"single alpha":       {single, with(single, func(s *core.JobSpec) { s.Alpha = 10 })},
		"frontier alpha 0/1": {multi, with(multi, func(s *core.JobSpec) { s.Alpha = 1 })},
		"robust band 0/default": {robust, with(robust, func(s *core.JobSpec) {
			s.RobustBand = core.DefaultRobustBand
		})},
		"single band": {single, with(single, func(s *core.JobSpec) { s.RobustBand = 3 })},
		"multi band":  {multi, with(multi, func(s *core.JobSpec) { s.RobustBand = 3 })},
	} {
		if c.KeyOf(q, pair[0]) != c.KeyOf(q, pair[1]) {
			t.Errorf("%s: keys differ", name)
		}
		a, b := mustAnswer(t, q, pair[0]), mustAnswer(t, q, pair[1])
		if wire.PlanFingerprint(a.Best) != wire.PlanFingerprint(b.Best) || len(a.Frontier) != len(b.Frontier) {
			t.Errorf("%s: the engine's answers differ", name)
			continue
		}
		for i := range a.Frontier {
			if wire.PlanFingerprint(a.Frontier[i]) != wire.PlanFingerprint(b.Frontier[i]) {
				t.Errorf("%s: frontier plan %d differs", name, i)
			}
		}
	}
}

// TestLookupInsert: a round trip serves a shallow copy that is
// bit-identical under the wire plan fingerprint and stamped as a hit.
func TestLookupInsert(t *testing.T) {
	c := New(Config{})
	q := genQuery(t, 7, 3)
	spec := core.JobSpec{Space: partition.Linear, Workers: 4}

	if _, ok := c.Lookup(q, spec); ok {
		t.Fatal("lookup on empty cache hit")
	}
	ans := mustAnswer(t, q, spec)
	c.Insert(q, spec, ans)
	got, ok := c.Lookup(q, spec)
	if !ok {
		t.Fatal("lookup after insert missed")
	}
	if wire.PlanFingerprint(got.Best) != wire.PlanFingerprint(ans.Best) {
		t.Fatal("cached best plan is not bit-identical")
	}
	if got.Cache == nil || !got.Cache.Hit || got.Cache.Collapsed {
		t.Fatalf("hit stamp = %+v", got.Cache)
	}
	if got == ans {
		t.Fatal("lookup returned the stored answer, not a copy")
	}
	tt := c.Totals()
	if tt.Hits != 1 || tt.Entries != 1 || tt.Bytes <= 0 {
		t.Fatalf("totals = %+v", tt)
	}
	// Re-inserting the same key replaces the entry without growing.
	c.Insert(q, spec, ans)
	if tt2 := c.Totals(); tt2.Entries != 1 || tt2.Bytes != tt.Bytes {
		t.Fatalf("replacement changed occupancy: %+v -> %+v", tt, tt2)
	}
}

// withCost returns a copy of ans whose deterministic recompute cost
// (Stats.WorkUnits) is pinned to w, for eviction-order tests.
func withCost(ans *core.Answer, w uint64) *core.Answer {
	cp := *ans
	cp.Stats = plan.Stats{SetsProcessed: w}
	return &cp
}

// TestCostWeightedEviction: under a byte budget, the cheap-to-recompute
// entries go first even when the expensive entry is the oldest, the
// eviction order among equals is deterministic (insertion order), and
// the expensive entry still ages out under enough cheap churn.
func TestCostWeightedEviction(t *testing.T) {
	q := genQuery(t, 7, 4)
	ans := mustAnswer(t, q, core.JobSpec{Space: partition.Linear, Workers: 1})
	// Distinct keys with identical sizes: same query and plan, varying
	// worker count (a fixed-width field of the encoded spec).
	spec := func(w int) core.JobSpec { return core.JobSpec{Space: partition.Linear, Workers: w} }

	probe := New(Config{})
	probe.Insert(q, spec(1), ans)
	size := probe.Totals().Bytes

	c := New(Config{MaxBytes: 3 * size})
	c.Insert(q, spec(1), withCost(ans, 1000)) // expensive, oldest
	c.Insert(q, spec(2), withCost(ans, 1))    // cheap
	c.Insert(q, spec(3), withCost(ans, 1))    // cheap
	c.Insert(q, spec(4), withCost(ans, 1))    // forces one eviction

	if _, ok := c.Lookup(q, spec(1)); !ok {
		t.Fatal("expensive entry was evicted before cheap ones")
	}
	if _, ok := c.Lookup(q, spec(2)); ok {
		t.Fatal("oldest cheap entry survived; eviction order is not deterministic")
	}
	if _, ok := c.Lookup(q, spec(3)); !ok {
		t.Fatal("newer cheap entry was evicted out of order")
	}
	tt := c.Totals()
	if tt.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", tt.Evictions)
	}
	if tt.Bytes > 3*size {
		t.Fatalf("occupancy %d exceeds budget %d", tt.Bytes, 3*size)
	}

	// GreedyDual aging: every eviction raises the inflation level to the
	// victim's priority, so after enough cheap churn the expensive
	// entry's stale priority falls below the fresh cheap ones and it
	// ages out too. The Lookup above was its first hit, so its priority
	// is the level then plus refs·expensive/size with refs = 2. Each
	// cheap entry enters at the level plus cheap/size and two share the
	// residency buffer, so the level climbs cheap/size every two
	// evictions: refs·expensive/(cheap/2) churn inserts overtake it.
	// resident checks without a Lookup, which would count a reference.
	const refs, expensive, cheap = 2, 1001, 2 // costs: work units + 1
	bound := refs * expensive / (cheap / 2)
	w := 5
	for ; w < 5+bound/2; w++ {
		c.Insert(q, spec(w), withCost(ans, 1))
	}
	if !resident(c, q, spec(1)) {
		t.Fatalf("expensive entry aged out after %d churn inserts, half the bound", bound/2)
	}
	for ; w < 5+bound; w++ {
		c.Insert(q, spec(w), withCost(ans, 1))
	}
	if _, ok := c.Lookup(q, spec(1)); ok {
		t.Fatal("expensive entry never aged out")
	}
}

// TestOversizeNotCached: an answer bigger than the whole budget is
// refused rather than evicting everything.
func TestOversizeNotCached(t *testing.T) {
	q := genQuery(t, 7, 5)
	spec := core.JobSpec{Space: partition.Linear, Workers: 1}
	ans := mustAnswer(t, q, spec)
	c := New(Config{MaxBytes: 16})
	c.Insert(q, spec, ans)
	if tt := c.Totals(); tt.Entries != 0 || tt.Evictions != 0 {
		t.Fatalf("oversize insert changed the cache: %+v", tt)
	}
}

// TestOversizeReplacementDropsOldAnswer: an answer too large for the
// budget, inserted for a key that holds an answer, leaves the key with
// none; it must not go on serving the answer it was given before.
func TestOversizeReplacementDropsOldAnswer(t *testing.T) {
	q := genQuery(t, 4, 5)
	spec := core.JobSpec{Space: partition.Linear, Workers: 1}
	small := mustAnswer(t, q, spec)
	large := mustAnswer(t, genQuery(t, 9, 5), spec)
	probe := New(Config{})
	probe.Insert(q, spec, small)
	c := New(Config{MaxBytes: probe.Totals().Bytes})
	c.Insert(q, spec, small)
	if _, ok := c.Lookup(q, spec); !ok {
		t.Fatal("an answer that fits the budget was not cached")
	}
	c.Insert(q, spec, large)
	if got, ok := c.Lookup(q, spec); ok {
		t.Fatalf("after an oversize replacement the key still serves an answer (the old one: %v)", got.Best == small.Best)
	}
	if tt := c.Totals(); tt.Entries != 0 || tt.Bytes != 0 || tt.Evictions != 0 {
		t.Fatalf("oversize replacement left %+v, want an empty cache and no eviction", tt)
	}
}

// TestKeysOneByteApart: two jobs whose keys differ in a single byte —
// the last mantissa bit of one selectivity — are stored side by side,
// and each is served its own answer through Lookup and through
// AppendWireHit.
func TestKeysOneByteApart(t *testing.T) {
	qa := genQuery(t, 7, 6)
	qb := query.MustNew(qa.Tables)
	for i, p := range qa.Preds {
		if i == len(qa.Preds)-1 {
			p.Selectivity = math.Float64frombits(math.Float64bits(p.Selectivity) ^ 1)
		}
		qb.MustAddPredicate(p)
	}
	spec := core.JobSpec{Space: partition.Linear, Workers: 2}
	c := New(Config{})
	ka, kb := c.KeyOf(qa, spec), c.KeyOf(qb, spec)
	differ := 0
	for i := range ka {
		if ka[i] != kb[i] {
			differ++
		}
	}
	if len(ka) != len(kb) || differ != 1 {
		t.Fatalf("keys of %d and %d bytes differ in %d bytes, want one", len(ka), len(kb), differ)
	}

	ansA, ansB := mustAnswer(t, qa, spec), mustAnswer(t, qb, spec)
	c.Insert(qa, spec, ansA)
	c.Insert(qb, spec, ansB)
	if tt := c.Totals(); tt.Entries != 2 {
		t.Fatalf("totals = %+v, want 2 entries", tt)
	}
	for _, tc := range []struct {
		name string
		q    *query.Query
		ans  *core.Answer
	}{{"a", qa, ansA}, {"b", qb, ansB}} {
		got, ok := c.Lookup(tc.q, spec)
		if !ok || got.Best != tc.ans.Best {
			t.Fatalf("job %s: Lookup served another answer (hit %v)", tc.name, ok)
		}
		req := wire.EncodeJobRequest(&wire.JobRequest{Seq: 5, Spec: spec, Query: tc.q})
		reply, stored, ok := c.AppendWireHit(nil, req)
		if !ok || stored != tc.ans {
			t.Fatalf("job %s: AppendWireHit served another answer (hit %v)", tc.name, ok)
		}
		if want := wire.AnswerFrame(5, tc.ans.Best, nil, tc.ans.Stats); !bytes.Equal(reply, want) {
			t.Fatalf("job %s: AppendWireHit served another reply frame", tc.name)
		}
	}
}

// TestOptimizeMissThenHit: the singleflight front door computes once,
// stamps the miss, and serves every repeat as a hit without calling
// compute again.
func TestOptimizeMissThenHit(t *testing.T) {
	c := New(Config{})
	q := genQuery(t, 7, 8)
	spec := core.JobSpec{Space: partition.Linear, Workers: 4}
	calls := 0
	compute := func(ctx context.Context, q *query.Query, s core.JobSpec) (*core.Answer, error) {
		calls++
		return core.OptimizeContext(ctx, q, s)
	}
	ctx := context.Background()
	first, err := c.Optimize(ctx, q, spec, compute)
	if err != nil {
		t.Fatal(err)
	}
	if first.Cache == nil || first.Cache.Hit || first.Cache.Collapsed {
		t.Fatalf("miss stamp = %+v", first.Cache)
	}
	second, err := c.Optimize(ctx, q, spec, compute)
	if err != nil {
		t.Fatal(err)
	}
	if !second.Cache.Hit {
		t.Fatalf("repeat was not a hit: %+v", second.Cache)
	}
	if calls != 1 {
		t.Fatalf("compute ran %d times, want 1", calls)
	}
	if wire.PlanFingerprint(first.Best) != wire.PlanFingerprint(second.Best) {
		t.Fatal("hit is not bit-identical to the miss")
	}
	// The hit path is the serving steady state: a key encode plus a
	// stamped shallow copy (about 10 allocations), never a plan clone or
	// a dynamic program.
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := c.Optimize(ctx, q, spec, compute); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 100 {
		t.Fatalf("cache hit allocates %.0f objects, want <= 100", allocs)
	}
	t.Logf("cache hit: %.0f allocs", allocs)
}

// TestOptimizeBatchKeysOutsideTheLock: a key is a full wire encoding of
// the job, and Lookup, Insert and Optimize all compute it before taking
// the cache mutex. The batch path must too — every concurrent request
// on the same cache waits behind that mutex. The encoder runs inside
// KeyOf, so a probe in its place can see whether the lock is held.
func TestOptimizeBatchKeysOutsideTheLock(t *testing.T) {
	c := New(Config{})
	hashed, locked := 0, 0
	orig := encodeJob
	defer func() { encodeJob = orig }()
	encodeJob = func(q *query.Query, spec core.JobSpec) []byte {
		hashed++
		if c.mu.TryLock() {
			c.mu.Unlock()
		} else {
			locked++
		}
		return orig(q, spec)
	}
	spec := core.JobSpec{Space: partition.Linear, Workers: 2}
	jobs := make([]BatchJob, 4)
	for i := range jobs {
		jobs[i] = BatchJob{Query: genQuery(t, 6, int64(20+i)), Spec: spec}
	}
	compute := func(ctx context.Context, miss []BatchJob) ([]*core.Answer, error) {
		out := make([]*core.Answer, len(miss))
		for i, j := range miss {
			out[i] = mustAnswer(t, j.Query, j.Spec)
		}
		return out, nil
	}
	if _, err := c.OptimizeBatch(context.Background(), jobs, compute); err != nil {
		t.Fatal(err)
	}
	if hashed != len(jobs) {
		t.Fatalf("hashed %d keys for a %d-job batch", hashed, len(jobs))
	}
	if locked != 0 {
		t.Fatalf("%d of %d keys were encoded with the cache mutex held", locked, hashed)
	}
}
