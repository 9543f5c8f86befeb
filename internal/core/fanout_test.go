package core

import (
	"context"
	"errors"
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

// Every partition ID is worked exactly once, at most min(width, m) at a
// time — and exactly that many do run together — with the results
// indexed by ID; width < 1 is GOMAXPROCS.
func TestRunPartitions(t *testing.T) {
	for _, m := range []int{1, 3, 16} {
		for _, width := range []int{0, 1, 2, 64} {
			limit := width
			if limit < 1 {
				limit = runtime.GOMAXPROCS(0)
			}
			limit = min(limit, m)
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			var running, peak, arrived atomic.Int32
			seen := make([]atomic.Int32, m)
			together := make(chan struct{})
			got, err := RunPartitions(ctx, m, width, func(ctx context.Context, partID int) (int, error) {
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
				t.Fatalf("m=%d width=%d: %v", m, width, err)
			}
			if int(peak.Load()) != limit {
				t.Errorf("m=%d width=%d: %d partitions ran at once, want %d", m, width, peak.Load(), limit)
			}
			for partID := range seen {
				if n := seen[partID].Load(); n != 1 || got[partID] != partID*partID {
					t.Errorf("m=%d width=%d: partition %d worked %d times, result %d", m, width, partID, n, got[partID])
				}
			}
		}
	}
}

// The first error ends the call: a partition's own, or the cause the
// caller's context ended with. Either way nothing is returned, queued
// partitions never start, and no goroutine is left behind.
func TestRunPartitionsStopsOnFirstError(t *testing.T) {
	boom := errors.New("boom")
	gone := errors.New("caller gave up")
	start := runtime.NumGoroutine()

	var calls atomic.Int32
	got, err := RunPartitions(context.Background(), 16, 2, func(ctx context.Context, partID int) (int, error) {
		calls.Add(1)
		if partID == 1 {
			return 0, boom
		}
		<-ctx.Done() // a sibling's failure reaches the running calls
		return 0, context.Cause(ctx)
	})
	if !errors.Is(err, boom) || got != nil || calls.Load() != 2 {
		t.Fatalf("failing partition: results %v, error %v after %d calls; want boom after 2", got, err, calls.Load())
	}
	if want := "partition 1: boom"; err.Error() != want {
		t.Fatalf("error %q, want %q", err, want)
	}

	ctx, cancel := context.WithCancelCause(context.Background())
	calls.Store(0)
	got, err = RunPartitions(ctx, 16, 2, func(ctx context.Context, partID int) (int, error) {
		if calls.Add(1) == 2 {
			cancel(gone)
		}
		<-ctx.Done()
		return 0, context.Cause(ctx)
	})
	if !errors.Is(err, gone) || got != nil || calls.Load() != 2 {
		t.Fatalf("canceled mid-run: results %v, error %v after %d calls; want the cause after 2", got, err, calls.Load())
	}

	calls.Store(0)
	got, err = RunPartitions(ctx, 16, 0, func(context.Context, int) (int, error) {
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
