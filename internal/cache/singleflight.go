package cache

import (
	"context"

	"mpq/internal/core"
	"mpq/internal/query"
)

// ComputeFunc runs the actual optimization on a cache miss — typically
// the wrapped engine's Optimize method.
type ComputeFunc func(ctx context.Context, q *query.Query, spec core.JobSpec) (*core.Answer, error)

// flight is one in-progress computation of a key. Leadership is a
// token in a one-slot channel: whoever holds it runs the dynamic
// program; everyone else waits for done (or for the token, if the
// leader cancels and hands off).
type flight struct {
	token chan struct{} // cap 1; take it to become the leader
	done  chan struct{} // closed when ans/err are published
	// waiters is the number of callers currently parked on this flight
	// (leader included until it takes the token), guarded by Cache.mu.
	// A canceled leader uses it to decide between handing the token to
	// a follower and retiring the flight.
	waiters int
	ans     *core.Answer
	err     error
}

// Optimize serves (q, spec) through the cache: a stored answer is a
// hit; otherwise concurrent identical requests collapse onto one
// flight whose leader runs compute and publishes the answer to every
// follower, and the answer is inserted under the byte budget. Followers
// are collapses, not hits: they add no reference to the entry.
//
// Context semantics: compute runs under the leader's ctx. If the
// leader's own context is canceled mid-compute, the flight is not
// poisoned — leadership passes to a waiting follower (whose context is
// still live) and only the canceled caller gets the context error. A
// follower whose own context expires leaves the flight alone and
// returns its context error. compute errors with a live context are
// deterministic job failures: they are published to all followers and
// never cached.
//
// Answers are shallow copies sharing the immutable plan trees of the
// cached answer, stamped with a per-answer core.CacheStats.
func (c *Cache) Optimize(ctx context.Context, q *query.Query, spec core.JobSpec, compute ComputeFunc) (*core.Answer, error) {
	key := c.KeyOf(q, spec)

	c.mu.Lock()
	if e := c.entries[key]; e != nil {
		ans, snap := c.hitLocked(e)
		c.mu.Unlock()
		return stamped(ans, snap, true, false), nil
	}
	f := c.flights[key]
	if f == nil {
		f = &flight{token: make(chan struct{}, 1), done: make(chan struct{})}
		f.token <- struct{}{}
		c.flights[key] = f
	}
	f.waiters++
	c.mu.Unlock()

	select {
	case <-f.token:
		return c.lead(ctx, key, f, q, spec, compute)

	case <-f.done:
		c.mu.Lock()
		f.waiters--
		if f.err == nil {
			c.t.Collapses++
		}
		snap := c.snapshotLocked()
		c.mu.Unlock()
		if f.err != nil {
			return nil, f.err
		}
		return stamped(f.ans, snap, false, true), nil

	case <-ctx.Done():
		c.mu.Lock()
		f.waiters--
		c.mu.Unlock()
		return nil, ctx.Err()
	}
}

// lead runs the computation as the flight's leader and publishes the
// outcome. On the leader's own cancellation it hands the token to a
// waiting follower (or retires the flight if nobody waits).
func (c *Cache) lead(ctx context.Context, key string, f *flight, q *query.Query, spec core.JobSpec, compute ComputeFunc) (*core.Answer, error) {
	c.mu.Lock()
	f.waiters--
	c.mu.Unlock()

	ans, err := compute(ctx, q, spec)
	if err != nil && ctx.Err() != nil {
		// Our own context died — this says nothing about the job, so
		// don't fail the followers. Hand leadership to one of them; if
		// none is waiting, retire the flight so the next arrival leads.
		c.mu.Lock()
		if f.waiters == 0 {
			delete(c.flights, key)
		} else {
			f.token <- struct{}{}
		}
		c.mu.Unlock()
		return nil, err
	}

	f.ans, f.err = ans, err
	var reply []byte
	var size int64
	if err == nil {
		reply, size = replyOf(ans, spec), entrySize(key, ans)
	}
	c.mu.Lock()
	delete(c.flights, key)
	c.t.Misses++
	if err == nil {
		c.insertLocked(key, ans, reply, size)
	}
	snap := c.snapshotLocked()
	c.mu.Unlock()
	close(f.done)
	if err != nil {
		return nil, err
	}
	return stamped(ans, snap, false, false), nil
}
