package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

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
	q := gen(t, 12, workload.Star, 0)
	serial, err := RunWorkerContext(context.Background(), q, JobSpec{Space: partition.Linear, Workers: 1}, 0)
	if err != nil {
		t.Fatal(err)
	}
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

	baseline := runtime.NumGoroutine()
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for i := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ans, err := OptimizeContext(context.Background(), q, JobSpec{Space: partition.Linear, Workers: 8})
			if err == nil && !approx(ans.Best.Cost, serial.Plans[0].Cost) {
				err = fmt.Errorf("cost %g, serial optimum %g", ans.Best.Cost, serial.Plans[0].Cost)
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

// A partition borrows only slots that are idle, and gives every slot
// back: across a lone Workers: 1 job, concurrent Workers: 1 calls, a
// Workers: 1 batch, a canceled context, a context canceled mid-run and
// specs that fail validation in the worker, the slots in use — each
// dynamic program's own plus its helpers' until they are released —
// never exceed GOMAXPROCS, no job of GOMAXPROCS or more partitions takes
// a helper, none takes more than maxHelpers, every answer is the
// optimum, and all slots are back after every return.
func TestOptimizeBorrowsOnlyIdleSlots(t *testing.T) {
	q := gen(t, 14, workload.Star, 0) // past minWideSlots[Linear] at m = 1 and 2
	serial, err := RunWorkerContext(context.Background(), q, JobSpec{Space: partition.Linear, Workers: 1}, 0)
	if err != nil {
		t.Fatal(err)
	}
	var inUse, peak, helped atomic.Int32
	var wideJobErr atomic.Value
	orig := runDP
	defer func() { runDP = orig }()
	runDP = func(ctx context.Context, q *query.Query, cs *partition.ConstraintSet, opts dp.Options) (*dp.Result, error) {
		var held atomic.Int32
		held.Store(int32(1 + opts.Helpers))
		now := inUse.Add(held.Load())
		defer func() { inUse.Add(-held.Load()) }()
		for old := peak.Load(); now > old && !peak.CompareAndSwap(old, now); old = peak.Load() {
		}
		if opts.Helpers > 0 {
			helped.Add(1)
			if m := 1 << len(cs.List); m >= cap(slots) || opts.Helpers > maxHelpers {
				wideJobErr.Store(fmt.Errorf("a job of %d partitions took %d helpers on %d slots", m, opts.Helpers, cap(slots)))
			}
			// A released slot counts as free from just before it is
			// handed on, so the count never runs ahead of the slots.
			release := opts.Release
			opts.Release = func() bool {
				held.Add(-1)
				inUse.Add(-1)
				if release() {
					return true
				}
				held.Add(1)
				inUse.Add(1)
				return false
			}
		}
		return orig(ctx, q, cs, opts)
	}
	allBack := func(after string) {
		t.Helper()
		if len(slots) != cap(slots) {
			t.Fatalf("after %s: %d of %d slots back", after, len(slots), cap(slots))
		}
	}

	one := JobSpec{Space: partition.Linear, Workers: 1}
	check := func(ans *Answer, err error) error {
		if err == nil && !approx(ans.Best.Cost, serial.Plans[0].Cost) {
			err = fmt.Errorf("cost %g, serial optimum %g", ans.Best.Cost, serial.Plans[0].Cost)
		}
		return err
	}

	// Alone, a job of one partition takes one more slot.
	if err := check(OptimizeContext(context.Background(), q, one)); err != nil {
		t.Fatal(err)
	}
	allBack("a lone job")
	if want := int32(min(cap(slots)-1, 1)); helped.Load() != want {
		t.Fatalf("a lone Workers: 1 job on %d slots: %d runs with helpers, want %d", cap(slots), helped.Load(), want)
	}
	// A partition of a job with as many partitions as slots, or more,
	// takes none, even with every other slot idle.
	wideSpec := JobSpec{Space: partition.Linear, Workers: max(2, cap(slots))}
	if _, err := RunWorkerContext(context.Background(), q, wideSpec, 0); err != nil {
		t.Fatal(err)
	}
	allBack("a lone partition")

	var wg sync.WaitGroup
	errs := make([]error, 6)
	for i := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			spec := one
			if i%3 == 2 {
				spec = wideSpec
			}
			errs[i] = check(OptimizeContext(context.Background(), q, spec))
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
	}
	allBack("concurrent calls")

	answers, err := RunPartitions(context.Background(), 6, func(ctx context.Context, _ int) (*Answer, error) {
		return OptimizeContext(ctx, q, one)
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, ans := range answers {
		if err := check(ans, nil); err != nil {
			t.Fatalf("batch job %d: %v", i, err)
		}
	}
	allBack("a batch")

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := OptimizeContext(ctx, q, one); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled context: err = %v", err)
	}
	allBack("a canceled context")
	big := gen(t, 16, workload.Clique, 0)
	ctx, cancel = context.WithCancel(context.Background())
	timer := time.AfterFunc(2*time.Millisecond, cancel)
	defer timer.Stop()
	if _, err := OptimizeContext(ctx, big, one); !errors.Is(err, context.Canceled) {
		t.Fatalf("context canceled mid-run: err = %v", err)
	}
	allBack("a context canceled mid-run")

	for _, workers := range []int{0, 3} {
		if _, err := RunWorkerContext(context.Background(), q, JobSpec{Space: partition.Linear, Workers: workers}, 0); err == nil {
			t.Fatalf("Workers: %d passed validation", workers)
		}
		allBack(fmt.Sprintf("a Workers: %d spec", workers))
	}

	if got := int(peak.Load()); got < 1 || got > cap(slots) {
		t.Errorf("%d runtimes in use at once, want 1..GOMAXPROCS = %d", got, cap(slots))
	}
	if err, _ := wideJobErr.Load().(error); err != nil {
		t.Error(err)
	}
}

// slotRuntimes returns the runtimes in the slots, and puts them back;
// no dynamic program may be running.
func slotRuntimes() map[*dp.Runtime]bool {
	rts := map[*dp.Runtime]bool{}
	for _, rt := range takeIdle(cap(slots)) {
		rts[rt] = true
		slots <- rt
	}
	return rts
}

// A borrowed slot goes to a partition that waits for one: with every
// slot in use, two of them by a Workers: 1 job and its helper, a second
// job's partition gets the helper's slot at the helper's next task, and
// ends while the first job still runs. Every slot is back after, with
// the runtime it had before: a helper borrows a core, not a runtime.
func TestBorrowedSlotGoesToAWaiter(t *testing.T) {
	if cap(slots) < 2 {
		t.Skip("one slot: no helper to lend")
	}
	before := slotRuntimes()
	held := takeIdle(cap(slots) - 2)
	defer func() {
		for _, rt := range held {
			slots <- rt
		}
	}()
	wide := make(chan struct{})
	var wideDone atomic.Bool
	orig := runDP
	defer func() { runDP = orig }()
	runDP = func(ctx context.Context, q *query.Query, cs *partition.ConstraintSet, opts dp.Options) (*dp.Result, error) {
		if opts.Helpers == 0 {
			return orig(ctx, q, cs, opts)
		}
		close(wide)
		res, err := orig(ctx, q, cs, opts)
		wideDone.Store(true)
		return res, err
	}

	one := JobSpec{Space: partition.Linear, Workers: 1}
	first := make(chan error, 1)
	go func() {
		_, err := OptimizeContext(context.Background(), gen(t, 16, workload.Star, 0), one)
		first <- err
	}()
	select {
	case <-wide:
	case err := <-first:
		t.Fatalf("the first job ran without a helper (err = %v)", err)
	}
	if _, err := OptimizeContext(context.Background(), gen(t, 8, workload.Star, 1), one); err != nil {
		t.Fatal(err)
	}
	if wideDone.Load() {
		t.Fatal("the waiting job got a slot only once the job that borrowed it ended")
	}
	if err := <-first; err != nil {
		t.Fatal(err)
	}
	if len(slots) != cap(slots)-len(held) {
		t.Fatalf("%d of %d slots back", len(slots), cap(slots)-len(held))
	}
	for _, rt := range held {
		slots <- rt
	}
	held = nil
	var fresh int
	for rt := range slotRuntimes() {
		if !before[rt] {
			fresh++
		}
	}
	if fresh > 0 {
		t.Fatalf("%d of %d slot runtimes are new", fresh, cap(slots))
	}
}

// A job a worker refuses is refused before it waits for a slot: with
// every slot taken, a partition ID out of range and a worker count that
// is not a power of two each return their validation error, not the
// deadline of the wait.
func TestBadJobIsRefusedBeforeTheWait(t *testing.T) {
	held := takeIdle(cap(slots))
	defer func() {
		for _, rt := range held {
			slots <- rt
		}
	}()
	if len(held) != cap(slots) {
		t.Fatalf("took %d of %d slots", len(held), cap(slots))
	}
	q := gen(t, 8, workload.Star, 0)
	for _, tc := range []struct {
		spec   JobSpec
		partID int
	}{
		{JobSpec{Space: partition.Linear, Workers: 2}, 2},
		{JobSpec{Space: partition.Linear, Workers: 3}, 0},
	} {
		ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
		_, err := RunWorkerContext(ctx, q, tc.spec, tc.partID)
		cancel()
		if err == nil || errors.Is(err, context.DeadlineExceeded) {
			t.Errorf("Workers: %d, partition %d: err = %v, want a validation error", tc.spec.Workers, tc.partID, err)
		}
	}
}
