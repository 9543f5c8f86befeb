package mpq_test

import (
	"context"
	"math"
	"testing"
	"time"

	"mpq"
)

// TestCachedEngineBitIdenticalAcrossEngines is the cache acceptance
// criterion's identity half: for every engine — serial, in-process,
// simulated, TCP — and every workload family (including the
// multi-objective frontier), the cache-miss answer and the cache-hit
// answer are bit-identical (wire plan fingerprint) to the uncached
// engine's answer, and the hit is stamped as one.
func TestCachedEngineBitIdenticalAcrossEngines(t *testing.T) {
	tcp, _ := startTCPEngine(t, 2)
	engines := []struct {
		name string
		eng  mpq.Engine
	}{
		{"serial", mpq.NewSerialEngine()},
		{"inprocess", mpq.NewInProcessEngine()},
		{"sim", mpq.NewSimEngine()},
		{"tcp", tcp},
	}
	ctx := context.Background()
	rows := engineWorkloads(t)
	if testing.Short() {
		rows = rows[:3]
	}
	for _, e := range engines {
		cached := mpq.WithCache(e.eng, mpq.CacheConfig{})
		for _, row := range rows {
			t.Run(e.name+"/"+row.name, func(t *testing.T) {
				want, err := e.eng.Optimize(ctx, row.q, row.spec)
				if err != nil {
					t.Fatal(err)
				}
				miss, err := cached.Optimize(ctx, row.q, row.spec)
				if err != nil {
					t.Fatal(err)
				}
				hit, err := cached.Optimize(ctx, row.q, row.spec)
				if err != nil {
					t.Fatal(err)
				}
				if miss.Cache == nil || miss.Cache.Hit {
					t.Fatalf("first cached answer not stamped as a miss: %+v", miss.Cache)
				}
				if hit.Cache == nil || !hit.Cache.Hit {
					t.Fatalf("second cached answer not stamped as a hit: %+v", hit.Cache)
				}
				wantFP := mpq.PlanFingerprint(want.Best)
				if mpq.PlanFingerprint(miss.Best) != wantFP {
					t.Fatal("cache-miss plan differs from the uncached engine's")
				}
				if mpq.PlanFingerprint(hit.Best) != wantFP {
					t.Fatal("cache-hit plan differs from the uncached engine's")
				}
				if len(hit.Frontier) != len(want.Frontier) {
					t.Fatalf("hit frontier size %d != uncached %d", len(hit.Frontier), len(want.Frontier))
				}
				for i := range hit.Frontier {
					if mpq.PlanFingerprint(hit.Frontier[i]) != mpq.PlanFingerprint(want.Frontier[i]) {
						t.Fatalf("hit frontier plan %d differs from the uncached engine's", i)
					}
				}
			})
		}
		if tt := cached.CacheTotals(); tt.Hits != uint64(len(rows)) || tt.Misses != uint64(len(rows)) {
			t.Fatalf("%s: totals = %+v, want %d hits and %d misses", e.name, tt, len(rows), len(rows))
		}
	}
}

// TestCachedParametricBitIdentical: parametric reuse is the one plan
// cache. The second Optimize of a parametric job is a hit, and picking
// a plan from the hit's frontier is bit-identical to picking from a
// fresh uncached run's at every θ that could tell them apart — the
// endpoints, every breakpoint (where two cost lines tie exactly), one
// ulp either side of each (inside ParametricBest's relative tie band),
// and every cell midpoint. A different spill factor or worker count is
// a different job and misses.
func TestCachedParametricBitIdentical(t *testing.T) {
	ctx := context.Background()
	for _, cb := range []struct {
		tables int
		shape  mpq.Shape
		seed   int64
		space  mpq.Space
		spill  float64
	}{
		{7, mpq.Star, 8, mpq.Linear, 8}, // several interior breakpoints
		{6, mpq.Chain, 3, mpq.Linear, 2},
		{6, mpq.Star, 5, mpq.Bushy, 5},
	} {
		_, q, err := mpq.GenerateWorkload(mpq.NewWorkloadParams(cb.tables, cb.shape), cb.seed)
		if err != nil {
			t.Fatal(err)
		}
		spec := mpq.ParametricSpec(cb.space, 2, cb.spill)
		fresh, err := mpq.NewInProcessEngine().Optimize(ctx, q, spec)
		if err != nil {
			t.Fatal(err)
		}
		cached := mpq.WithCache(mpq.NewInProcessEngine(), mpq.CacheConfig{})
		if _, err := cached.Optimize(ctx, q, spec); err != nil {
			t.Fatal(err)
		}
		hit, err := cached.Optimize(ctx, q, spec)
		if err != nil {
			t.Fatal(err)
		}
		if hit.Cache == nil || !hit.Cache.Hit {
			t.Fatalf("second parametric Optimize not served from the cache: %+v", hit.Cache)
		}

		breaks, err := mpq.ParametricBreakpoints(fresh.Frontier)
		if err != nil {
			t.Fatal(err)
		}
		if cb.spill == 8 && len(breaks) < 3 {
			t.Fatalf("want a frontier with interior breakpoints, got %v", breaks)
		}
		thetas := []float64{0, 1}
		for i, b := range breaks[:len(breaks)-1] {
			thetas = append(thetas, (b+breaks[i+1])/2)
			if i > 0 {
				thetas = append(thetas, b, math.Nextafter(b, 0), math.Nextafter(b, 1))
			}
		}
		for _, theta := range thetas {
			want, err := mpq.ParametricBest(fresh.Frontier, theta)
			if err != nil {
				t.Fatal(err)
			}
			got, err := mpq.ParametricBest(hit.Frontier, theta)
			if err != nil {
				t.Fatal(err)
			}
			if mpq.PlanFingerprint(got) != mpq.PlanFingerprint(want) {
				t.Errorf("%d-table %v seed %d spill %g: θ=%.20g: cached pick %s, fresh pick %s",
					cb.tables, cb.shape, cb.seed, cb.spill, theta, got, want)
			}
		}

		for _, other := range []mpq.JobSpec{
			mpq.ParametricSpec(cb.space, 2, cb.spill+1),
			mpq.ParametricSpec(cb.space, 4, cb.spill),
		} {
			ans, err := cached.Optimize(ctx, q, other)
			if err != nil {
				t.Fatal(err)
			}
			if ans.Cache.Hit {
				t.Fatalf("spec %+v was served from another parametric job's entry", other)
			}
		}
		if tt := cached.CacheTotals(); tt.Hits != 1 || tt.Misses != 3 || tt.Entries != 3 {
			t.Fatalf("totals = %+v, want 1 hit, 3 misses, 3 entries", tt)
		}
	}
}

// TestCachedEngineBatchDedupe: a batch with repeated jobs runs each
// distinct job once; duplicates are collapse-stamped and bit-identical,
// later batches hit the store.
func TestCachedEngineBatchDedupe(t *testing.T) {
	_, qa, err := mpq.GenerateWorkload(mpq.NewWorkloadParams(7, mpq.Star), 101)
	if err != nil {
		t.Fatal(err)
	}
	_, qb, err := mpq.GenerateWorkload(mpq.NewWorkloadParams(7, mpq.Chain), 102)
	if err != nil {
		t.Fatal(err)
	}
	spec := mpq.JobSpec{Space: mpq.Linear, Workers: 4}
	jobs := []mpq.Job{
		{Query: qa, Spec: spec},
		{Query: qb, Spec: spec},
		{Query: qa, Spec: spec},
		{Query: qa, Spec: spec},
		{Query: qb, Spec: spec},
	}
	eng := mpq.WithCache(mpq.NewInProcessEngine(), mpq.CacheConfig{})
	ctx := context.Background()

	batch, err := eng.OptimizeBatch(ctx, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) != len(jobs) {
		t.Fatalf("got %d answers for %d jobs", len(batch), len(jobs))
	}
	for i, ans := range batch {
		if ans == nil || ans.Cache == nil {
			t.Fatalf("job %d: no cache stamp", i)
		}
	}
	// Input order is preserved and duplicates are bit-identical.
	if mpq.PlanFingerprint(batch[0].Best) != mpq.PlanFingerprint(batch[2].Best) ||
		mpq.PlanFingerprint(batch[0].Best) != mpq.PlanFingerprint(batch[3].Best) {
		t.Fatal("duplicate jobs got different plans")
	}
	if mpq.PlanFingerprint(batch[1].Best) != mpq.PlanFingerprint(batch[4].Best) {
		t.Fatal("duplicate jobs got different plans")
	}
	if mpq.PlanFingerprint(batch[0].Best) == mpq.PlanFingerprint(batch[1].Best) {
		t.Fatal("distinct jobs got the same plan")
	}
	for _, i := range []int{2, 3, 4} {
		if !batch[i].Cache.Collapsed || batch[i].Cache.Hit {
			t.Fatalf("duplicate %d not collapse-stamped: %+v", i, batch[i].Cache)
		}
	}
	tt := eng.CacheTotals()
	if tt.Misses != 2 || tt.Collapses != 3 || tt.Hits != 0 {
		t.Fatalf("totals after first batch = %+v, want 2 misses and 3 collapses", tt)
	}

	// The second identical batch is all hits.
	again, err := eng.OptimizeBatch(ctx, jobs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range again {
		if !again[i].Cache.Hit {
			t.Fatalf("second-batch job %d missed: %+v", i, again[i].Cache)
		}
		if mpq.PlanFingerprint(again[i].Best) != mpq.PlanFingerprint(batch[i].Best) {
			t.Fatalf("second-batch job %d differs from first", i)
		}
	}
	if tt := eng.CacheTotals(); tt.Hits != uint64(len(jobs)) {
		t.Fatalf("totals after second batch = %+v", tt)
	}
}

// TestCachedEngineZipfThroughput is the cache acceptance criterion's
// performance half: serving a Zipf(s=1.1) repeat stream over 64
// distinct queries, the cached in-process engine runs at most 64
// dynamic programs for 1536 arrivals — at least 90 % of the uncached
// engine's DP runs avoided — with every cached answer bit-identical to
// the uncached one, and the unlimited budget never evicts. The
// assertions are on counted work, which no machine
// load can move; the wall-clock ratio it buys is logged, and measured
// properly by bench/ (serve-zipf8).
func TestCachedEngineZipfThroughput(t *testing.T) {
	if testing.Short() {
		t.Skip("throughput measurement; run without -short")
	}
	stream, err := mpq.GenerateWorkloadStream(mpq.StreamParams{
		Query:    mpq.NewWorkloadParams(10, mpq.Star),
		Distinct: 64,
		Length:   1536,
		Skew:     1.1,
	}, 7)
	if err != nil {
		t.Fatal(err)
	}
	spec := mpq.JobSpec{Space: mpq.Linear, Workers: 4}
	ctx := context.Background()

	inner := mpq.NewInProcessEngine()
	wantFP := make([]string, len(stream.Queries))
	uncachedStart := time.Now()
	arrivals := 0
	for i := range stream.Order {
		ans, err := inner.Optimize(ctx, stream.At(i), spec)
		if err != nil {
			t.Fatal(err)
		}
		arrivals++
		wantFP[stream.Order[i]] = mpq.PlanFingerprint(ans.Best)
		if ans.Cache != nil {
			t.Fatal("uncached engine stamped a cache record")
		}
	}
	uncached := time.Since(uncachedStart)

	eng := mpq.WithCache(inner, mpq.CacheConfig{})
	cachedStart := time.Now()
	for i := range stream.Order {
		ans, err := eng.Optimize(ctx, stream.At(i), spec)
		if err != nil {
			t.Fatal(err)
		}
		if got := mpq.PlanFingerprint(ans.Best); got != wantFP[stream.Order[i]] {
			t.Fatalf("arrival %d: cached plan differs from uncached plan", i)
		}
	}
	cached := time.Since(cachedStart)

	tt := eng.CacheTotals()
	if tt.Misses > 64 {
		t.Fatalf("%d misses for 64 distinct queries", tt.Misses)
	}
	avoided := tt.Hits + tt.Collapses
	if avoided+tt.Misses != uint64(arrivals) {
		t.Fatalf("totals %+v don't add up to %d arrivals", tt, arrivals)
	}
	if avoided*10 < uint64(arrivals)*9 {
		t.Fatalf("only %d of %d DP runs avoided, want >= 90%%", avoided, arrivals)
	}
	if tt.Evictions != 0 {
		t.Fatalf("unlimited cache evicted %d entries", tt.Evictions)
	}
	t.Logf("uncached %v, cached %v, speedup %.1fx, hit rate %.3f",
		uncached, cached, uncached.Seconds()/cached.Seconds(), float64(tt.Hits)/float64(arrivals)) //lint:allow sinceratio logged, never asserted
}

// TestCachedEngineBudgetedEviction: a budget smaller than the working
// set forces evictions but never wrong answers.
func TestCachedEngineBudgetedEviction(t *testing.T) {
	stream, err := mpq.GenerateWorkloadStream(mpq.StreamParams{
		Query:    mpq.NewWorkloadParams(7, mpq.Star),
		Distinct: 16,
		Length:   128,
		Skew:     1.2,
	}, 3)
	if err != nil {
		t.Fatal(err)
	}
	spec := mpq.JobSpec{Space: mpq.Linear, Workers: 2}
	ctx := context.Background()
	inner := mpq.NewInProcessEngine()
	wantFP := make([]string, len(stream.Queries))
	for k, q := range stream.Queries {
		ans, err := inner.Optimize(ctx, q, spec)
		if err != nil {
			t.Fatal(err)
		}
		wantFP[k] = mpq.PlanFingerprint(ans.Best)
	}

	eng := mpq.WithCache(inner, mpq.CacheConfig{MaxBytes: 4 << 10})
	for i := range stream.Order {
		ans, err := eng.Optimize(ctx, stream.At(i), spec)
		if err != nil {
			t.Fatal(err)
		}
		if mpq.PlanFingerprint(ans.Best) != wantFP[stream.Order[i]] {
			t.Fatalf("arrival %d: budgeted cache served a wrong plan", i)
		}
	}
	tt := eng.CacheTotals()
	if tt.Evictions == 0 {
		t.Fatalf("budget never forced an eviction: %+v", tt)
	}
	if tt.Bytes > 4<<10 {
		t.Fatalf("occupancy %d exceeds the 4KB budget", tt.Bytes)
	}
}
