package core

import (
	"context"
	"runtime"
	"runtime/debug"
	"testing"

	"mpq/internal/partition"
	"mpq/internal/workload"
)

// allocBytesDuring measures the heap bytes fn allocates (global
// counter; the caller keeps the test single-flight). GC is assumed
// disabled by the caller so sync.Pool contents survive between
// measurements.
func allocBytesDuring(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// The worker pool must make the second identical job substantially
// cheaper than the first: runtimes (arena slabs + memo capacity) are
// recycled instead of re-grown. This is the in-process engine's
// OptimizeBatch steady state.
func TestWorkerPoolReusesRuntimes(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop items at random")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1)) // keep pool contents alive
	// sync.Pool keeps returned items in a per-P slot: on one P the second
	// job finds what the first one put back wherever the scheduler runs
	// its workers.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	q := gen(t, 12, workload.Star, 3)
	spec := JobSpec{Space: partition.Linear, Workers: 4}
	ctx := context.Background()

	job := func() {
		if _, err := OptimizeContext(ctx, q, spec, 1); err != nil {
			t.Fatal(err)
		}
	}
	// Two collections empty the pool including its victim cache, so the
	// first job below is genuinely cold even if earlier tests warmed the
	// pool; GC is then off (deferred restore above), so the runtimes the
	// first job grows survive for the second.
	runtime.GC()
	runtime.GC()
	// Parallelism 1 keeps worker goroutines sequential, so every worker
	// can reuse the runtime its predecessor returned to the pool. The
	// comparison is on bytes: the cold job grows arena slabs and memo
	// tables (hundreds of KiB), the warm job borrows them back and pays
	// only per-answer bookkeeping.
	first := allocBytesDuring(job)
	second := allocBytesDuring(job)
	if second*2 > first {
		t.Fatalf("second job allocated %d bytes, first %d — pool reuse should at least halve it", second, first)
	}
}

// Pooled runtimes carry state sized by earlier queries (bigger memo
// capacity, more slabs). Jobs must be bit-identical no matter which
// runtime history they land on: run a large query to fatten the pool,
// then verify a small query answers exactly like a cold process would.
func TestPooledRuntimeStaleCapacityBitIdentical(t *testing.T) {
	small := gen(t, 7, workload.Chain, 5)
	spec := JobSpec{Space: partition.Bushy, Workers: 4}
	ctx := context.Background()

	cold, err := OptimizeContext(ctx, small, spec, 4)
	if err != nil {
		t.Fatal(err)
	}

	// Fatten the pool: a 14-table clique forces every pooled memo and
	// arena well past the small query's size.
	big := gen(t, 14, workload.Clique, 6)
	if _, err := OptimizeContext(ctx, big, JobSpec{Space: partition.Linear, Workers: 4}, 4); err != nil {
		t.Fatal(err)
	}

	warm, err := OptimizeContext(ctx, small, spec, 4)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Best.String() != cold.Best.String() || !approx(warm.Best.Cost, cold.Best.Cost) {
		t.Fatalf("stale-capacity run changed the plan:\ncold %s (%g)\nwarm %s (%g)",
			cold.Best, cold.Best.Cost, warm.Best, warm.Best.Cost)
	}
	if warm.Stats != cold.Stats {
		t.Fatalf("stale-capacity run changed the stats:\ncold %+v\nwarm %+v", cold.Stats, warm.Stats)
	}
	// Per-worker reports must stay in partition-ID order regardless of
	// which pooled runtime served which partition.
	for i, wr := range warm.PerWorker {
		if wr.PartID != i {
			t.Fatalf("PerWorker[%d].PartID = %d — aggregation no longer partition-ID-ordered", i, wr.PartID)
		}
		if wr.Stats != cold.PerWorker[i].Stats {
			t.Fatalf("worker %d stats differ with pooled runtimes:\ncold %+v\nwarm %+v",
				i, cold.PerWorker[i].Stats, wr.Stats)
		}
	}
}
