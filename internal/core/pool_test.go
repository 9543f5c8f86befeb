package core

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"mpq/internal/dp"
	"mpq/internal/partition"
	"mpq/internal/query"
	"mpq/internal/workload"
)

// allocBytesDuring measures the heap bytes fn allocates (global
// counter; the caller keeps the test single-flight).
func allocBytesDuring(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// coldSlots swaps every slot's runtime for an empty one, as a fresh
// process has them; no dynamic program may be running.
func coldSlots() {
	for range cap(slots) {
		<-slots
	}
	for range cap(slots) {
		slots <- dp.NewRuntime()
	}
}

// The runtime slots must make the second identical job substantially
// cheaper than the first: runtimes (arena slabs + memo capacity) are
// reused instead of re-grown, whatever the garbage collector, the race
// detector or the number of cores. This is the in-process engine's
// OptimizeBatch steady state.
func TestWorkerPoolReusesRuntimes(t *testing.T) {
	q := gen(t, 12, workload.Star, 3)
	spec := JobSpec{Space: partition.Linear, Workers: 4}
	ctx := context.Background()

	job := func() {
		if _, err := OptimizeContext(ctx, q, spec); err != nil {
			t.Fatal(err)
		}
	}
	// The comparison is on bytes: the cold job grows arena slabs and memo
	// tables (hundreds of KiB), the warm job borrows them back and pays
	// only per-answer bookkeeping.
	coldSlots()
	first := allocBytesDuring(job)
	second := allocBytesDuring(job)
	if second*2 > first {
		t.Fatalf("second job allocated %d bytes, first %d — runtime reuse should at least halve it", second, first)
	}
}

// Runtime slots carry state sized by earlier queries (bigger memo
// capacity, more slabs). Jobs must be bit-identical no matter which
// runtime history they land on: run a large query to fatten the slots,
// then verify a small query answers exactly like a cold process would.
func TestPooledRuntimeStaleCapacityBitIdentical(t *testing.T) {
	small := gen(t, 7, workload.Chain, 5)
	spec := JobSpec{Space: partition.Bushy, Workers: 4}
	ctx := context.Background()

	cold, err := OptimizeContext(ctx, small, spec)
	if err != nil {
		t.Fatal(err)
	}

	// Fatten the slots: a 14-table clique forces every slot's memo and
	// arena well past the small query's size.
	big := gen(t, 14, workload.Clique, 6)
	if _, err := OptimizeContext(ctx, big, JobSpec{Space: partition.Linear, Workers: 4}); err != nil {
		t.Fatal(err)
	}

	warm, err := OptimizeContext(ctx, small, spec)
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
	// which runtime slot served which partition.
	for i, wr := range warm.PerWorker {
		if wr.PartID != i {
			t.Fatalf("PerWorker[%d].PartID = %d — aggregation no longer partition-ID-ordered", i, wr.PartID)
		}
		if wr.Stats != cold.PerWorker[i].Stats {
			t.Fatalf("worker %d stats differ with reused runtimes:\ncold %+v\nwarm %+v",
				i, cold.PerWorker[i].Stats, wr.Stats)
		}
	}
}

// The parallelism cap is GOMAXPROCS for the whole process, not per
// call: eight concurrent Optimize calls of eight partitions each run at
// most GOMAXPROCS dynamic programs at once, on at most GOMAXPROCS
// distinct runtimes, every one returns the optimum, and no goroutine
// outlives them.
func TestOptimizeParallelismCap(t *testing.T) {
	var running, peak atomic.Int32
	var mu sync.Mutex
	runtimes := map[*dp.Runtime]bool{}
	orig := runDP
	defer func() { runDP = orig }()
	runDP = func(ctx context.Context, q *query.Query, cs *partition.ConstraintSet, opts dp.Options) (*dp.Result, error) {
		now := running.Add(1)
		defer running.Add(-1)
		for old := peak.Load(); now > old && !peak.CompareAndSwap(old, now); old = peak.Load() {
		}
		mu.Lock()
		runtimes[opts.Runtime] = true
		mu.Unlock()
		return orig(ctx, q, cs, opts)
	}

	q := gen(t, 12, workload.Star, 0)
	serial, err := dp.Serial(q, partition.Linear, dp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	baseline := runtime.NumGoroutine()
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for i := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ans, err := OptimizeContext(context.Background(), q, JobSpec{Space: partition.Linear, Workers: 8})
			if err == nil && !approx(ans.Best.Cost, serial.Best().Cost) {
				err = fmt.Errorf("cost %g, serial optimum %g", ans.Best.Cost, serial.Best().Cost)
			}
			errs[i] = err
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
	}
	if got := int(peak.Load()); got < 1 || got > cap(slots) {
		t.Errorf("%d dynamic programs ran at once, want 1..GOMAXPROCS = %d", got, cap(slots))
	}
	if got := len(runtimes); got < 1 || got > cap(slots) {
		t.Errorf("%d distinct runtimes used, want 1..GOMAXPROCS = %d", got, cap(slots))
	}
	if !goroutinesBackTo(baseline) {
		t.Fatalf("%d goroutines before, %d after", baseline, runtime.NumGoroutine())
	}
}
