package cache

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mpq/internal/core"
	"mpq/internal/partition"
	"mpq/internal/query"
	"mpq/internal/wire"
)

// TestSingleflightOneComputeManyCallers is the collapsing guarantee
// under -race: N concurrent identical requests run exactly one dynamic
// program, every caller gets a bit-identical plan, and the counters add
// up to one miss plus N-1 shared servings.
func TestSingleflightOneComputeManyCallers(t *testing.T) {
	c := New(Config{})
	q := genQuery(t, 8, 21)
	spec := core.JobSpec{Space: partition.Linear, Workers: 4}

	var computes atomic.Int32
	started := make(chan struct{})
	release := make(chan struct{})
	compute := func(ctx context.Context, q *query.Query, s core.JobSpec) (*core.Answer, error) {
		computes.Add(1)
		close(started) // only the singleflight leader gets here
		<-release
		return core.OptimizeContext(ctx, q, s)
	}

	const n = 32
	answers := make([]*core.Answer, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			answers[i], errs[i] = c.Optimize(context.Background(), q, spec, compute)
		}(i)
	}
	<-started
	close(release)
	wg.Wait()

	if got := computes.Load(); got != 1 {
		t.Fatalf("compute ran %d times for %d concurrent identical requests", got, n)
	}
	want := wire.PlanFingerprint(answers[0].Best)
	for i := range answers {
		if errs[i] != nil {
			t.Fatalf("caller %d: %v", i, errs[i])
		}
		if wire.PlanFingerprint(answers[i].Best) != want {
			t.Fatalf("caller %d got a different plan", i)
		}
		if answers[i].Cache == nil {
			t.Fatalf("caller %d has no cache stamp", i)
		}
	}
	tt := c.Totals()
	if tt.Misses != 1 || tt.Hits+tt.Collapses != n-1 {
		t.Fatalf("totals = %+v, want 1 miss and %d shared servings", tt, n-1)
	}
}

// waitWaiters polls until the key's flight has at least n parked
// followers (the leader has already taken the token and left the
// waiter count).
func waitWaiters(t *testing.T, c *Cache, key string, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		c.mu.Lock()
		f := c.flights[key]
		w := 0
		if f != nil {
			w = f.waiters
		}
		c.mu.Unlock()
		if w >= n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("flight never reached %d waiters (have %d)", n, w)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSingleflightCanceledLeaderHandsOff: a leader whose own context
// dies mid-compute must not poison the flight — leadership passes to a
// waiting follower, which computes under its live context and
// succeeds; only the canceled caller sees the context error.
func TestSingleflightCanceledLeaderHandsOff(t *testing.T) {
	c := New(Config{})
	q := genQuery(t, 8, 22)
	spec := core.JobSpec{Space: partition.Linear, Workers: 4}
	key := c.KeyOf(q, spec)

	var calls atomic.Int32
	leaderIn := make(chan struct{})
	compute := func(ctx context.Context, q *query.Query, s core.JobSpec) (*core.Answer, error) {
		if calls.Add(1) == 1 {
			close(leaderIn)
			<-ctx.Done() // a context-aware DP aborting mid-search
			return nil, ctx.Err()
		}
		return core.OptimizeContext(ctx, q, s)
	}

	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	defer cancelLeader()
	leaderErr := make(chan error, 1)
	go func() {
		_, err := c.Optimize(leaderCtx, q, spec, compute)
		leaderErr <- err
	}()
	<-leaderIn

	var followerAns *core.Answer
	var followerErr error
	followerDone := make(chan struct{})
	go func() {
		defer close(followerDone)
		followerAns, followerErr = c.Optimize(context.Background(), q, spec, compute)
	}()
	waitWaiters(t, c, key, 1)
	cancelLeader()

	if err := <-leaderErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled leader returned %v, want context.Canceled", err)
	}
	<-followerDone
	if followerErr != nil {
		t.Fatalf("follower inherited the leader's cancellation: %v", followerErr)
	}
	if got := calls.Load(); got != 2 {
		t.Fatalf("compute ran %d times, want 2 (canceled leader + promoted follower)", got)
	}
	if followerAns.Cache == nil || followerAns.Cache.Hit || followerAns.Cache.Collapsed {
		t.Fatalf("promoted follower should be stamped as the miss, got %+v", followerAns.Cache)
	}
	// The promoted follower's answer is cached for everyone after.
	if _, ok := c.Lookup(q, spec); !ok {
		t.Fatal("handed-off flight did not populate the cache")
	}
}

// TestSingleflightDeterministicFailure: a compute error under a live
// context is the job's answer — published to every waiting follower,
// never cached, and recomputed on the next request.
func TestSingleflightDeterministicFailure(t *testing.T) {
	c := New(Config{})
	q := genQuery(t, 8, 23)
	spec := core.JobSpec{Space: partition.Linear, Workers: 4}
	key := c.KeyOf(q, spec)

	boom := errors.New("deterministic job failure")
	started := make(chan struct{})
	release := make(chan struct{})
	var calls atomic.Int32
	compute := func(ctx context.Context, q *query.Query, s core.JobSpec) (*core.Answer, error) {
		if calls.Add(1) == 1 {
			close(started)
			<-release
		}
		return nil, boom
	}

	leaderErr := make(chan error, 1)
	go func() {
		_, err := c.Optimize(context.Background(), q, spec, compute)
		leaderErr <- err
	}()
	<-started
	followerErr := make(chan error, 1)
	go func() {
		_, err := c.Optimize(context.Background(), q, spec, compute)
		followerErr <- err
	}()
	waitWaiters(t, c, key, 1)
	close(release)

	if err := <-leaderErr; !errors.Is(err, boom) {
		t.Fatalf("leader error = %v", err)
	}
	if err := <-followerErr; !errors.Is(err, boom) {
		t.Fatalf("follower error = %v", err)
	}
	if tt := c.Totals(); tt.Entries != 0 {
		t.Fatalf("failed job was cached: %+v", tt)
	}
	// The failure is not sticky: the next request computes again.
	if _, err := c.Optimize(context.Background(), q, spec, compute); !errors.Is(err, boom) {
		t.Fatal("retry did not recompute")
	}
	if got := calls.Load(); got != 2 {
		t.Fatalf("compute ran %d times, want 2", got)
	}
}

// TestSingleflightFollowerCancellation: a follower whose own context
// expires leaves the flight untouched and returns its context error;
// the leader still completes and caches the answer.
func TestSingleflightFollowerCancellation(t *testing.T) {
	c := New(Config{})
	q := genQuery(t, 8, 24)
	spec := core.JobSpec{Space: partition.Linear, Workers: 4}
	key := c.KeyOf(q, spec)

	started := make(chan struct{})
	release := make(chan struct{})
	compute := func(ctx context.Context, q *query.Query, s core.JobSpec) (*core.Answer, error) {
		close(started)
		<-release
		return core.OptimizeContext(ctx, q, s)
	}

	leaderDone := make(chan error, 1)
	go func() {
		_, err := c.Optimize(context.Background(), q, spec, compute)
		leaderDone <- err
	}()
	<-started

	followerCtx, cancelFollower := context.WithCancel(context.Background())
	followerErr := make(chan error, 1)
	go func() {
		_, err := c.Optimize(followerCtx, q, spec, compute)
		followerErr <- err
	}()
	waitWaiters(t, c, key, 1)
	cancelFollower()
	if err := <-followerErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled follower returned %v", err)
	}

	close(release)
	if err := <-leaderDone; err != nil {
		t.Fatalf("leader failed after follower cancellation: %v", err)
	}
	if _, ok := c.Lookup(q, spec); !ok {
		t.Fatal("leader's answer was not cached")
	}
}
