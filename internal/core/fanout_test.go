package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// goroutinesBackTo polls until the goroutine count is back at (or under)
// want: RunPartitions returns when its goroutines are done, a moment
// before the runtime has retired them.
func goroutinesBackTo(want int) bool {
	for i := 0; i < 2000; i++ {
		if runtime.NumGoroutine() <= want {
			return true
		}
		time.Sleep(time.Millisecond)
	}
	return false
}

// Every partition ID is worked exactly once, at most min(m, GOMAXPROCS)
// at a time — and exactly that many do run together — with the results
// indexed by ID. GOMAXPROCS is read when the package initializes, the
// moment it sizes the runtime slots.
func TestRunPartitions(t *testing.T) {
	for _, m := range []int{1, 2, 3, 16, 64} {
		limit := min(cap(slots), m)
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		var running, peak, arrived atomic.Int32
		seen := make([]atomic.Int32, m)
		together := make(chan struct{})
		got, err := RunPartitions(ctx, m, func(ctx context.Context, partID int) (int, error) {
			now := running.Add(1)
			defer running.Add(-1)
			for old := peak.Load(); now > old && !peak.CompareAndSwap(old, now); old = peak.Load() {
			}
			seen[partID].Add(1)
			// The first limit calls wait for one another, so the bound is
			// reached, not just respected.
			if n := int(arrived.Add(1)); n == limit {
				close(together)
			} else if n < limit {
				select {
				case <-together:
				case <-ctx.Done():
					return 0, context.Cause(ctx)
				}
			}
			return partID * partID, nil
		})
		cancel()
		if err != nil {
			t.Fatalf("m=%d: %v", m, err)
		}
		if int(peak.Load()) != limit {
			t.Errorf("m=%d: %d partitions ran at once, want %d", m, peak.Load(), limit)
		}
		for partID := range seen {
			if n := seen[partID].Load(); n != 1 || got[partID] != partID*partID {
				t.Errorf("m=%d: partition %d worked %d times, result %d", m, partID, n, got[partID])
			}
		}
	}
}

// The first error ends the call: a partition's own, returned as work
// named it, or the cause the caller's context ended with. Either way
// nothing is returned, queued partitions never start, and no goroutine
// is left behind. The fan-out is GOMAXPROCS wide, so the last partition
// of the first wave fails (or cancels) once all of that wave are running.
func TestRunPartitionsStopsOnFirstError(t *testing.T) {
	boom := errors.New("boom")
	gone := errors.New("caller gave up")
	start := runtime.NumGoroutine()
	wave := cap(slots)

	var calls atomic.Int32
	got, err := RunPartitions(context.Background(), 16, func(ctx context.Context, partID int) (int, error) {
		calls.Add(1)
		if partID == wave-1 {
			return 0, fmt.Errorf("partition %d: %w", partID, boom)
		}
		<-ctx.Done() // a sibling's failure reaches the running calls
		return 0, context.Cause(ctx)
	})
	if !errors.Is(err, boom) || got != nil || int(calls.Load()) != wave {
		t.Fatalf("failing partition: results %v, error %v after %d calls; want boom after %d", got, err, calls.Load(), wave)
	}
	if want := fmt.Sprintf("partition %d: boom", wave-1); err.Error() != want {
		t.Fatalf("error %q, want %q", err, want)
	}

	ctx, cancel := context.WithCancelCause(context.Background())
	calls.Store(0)
	got, err = RunPartitions(ctx, 16, func(ctx context.Context, partID int) (int, error) {
		if int(calls.Add(1)) == wave {
			cancel(gone)
		}
		<-ctx.Done()
		return 0, context.Cause(ctx)
	})
	if !errors.Is(err, gone) || got != nil || int(calls.Load()) != wave {
		t.Fatalf("canceled mid-run: results %v, error %v after %d calls; want the cause after %d", got, err, calls.Load(), wave)
	}

	calls.Store(0)
	got, err = RunPartitions(ctx, 16, func(context.Context, int) (int, error) {
		calls.Add(1)
		return 0, nil
	})
	if !errors.Is(err, gone) || got != nil || calls.Load() != 0 {
		t.Fatalf("canceled before the call: results %v, error %v after %d calls; want the cause and no call", got, err, calls.Load())
	}

	if !goroutinesBackTo(start) {
		t.Fatalf("%d goroutines before, %d after", start, runtime.NumGoroutine())
	}
}
