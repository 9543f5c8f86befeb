package cache

import (
	"context"
	"fmt"

	"mpq/internal/core"
)

// BatchJob is one (query, spec) unit of a cached batch.
type BatchJob = core.Job

// BatchComputeFunc optimizes the batch's distinct cache misses —
// typically the wrapped engine's OptimizeBatch method, so the inner
// engine keeps its batch pipelining (e.g. the TCP master's keep-alive
// connection reuse) across the deduplicated jobs.
type BatchComputeFunc func(ctx context.Context, jobs []BatchJob) ([]*core.Answer, error)

// OptimizeBatch serves a batch through the cache with in-batch
// duplicate collapsing: stored answers are hits, repeated jobs within
// the batch collapse onto one computation, and only the distinct misses
// reach computeBatch — in one call, preserving the inner engine's batch
// semantics. Answers come back in input order; every cached or
// collapsed answer is a shallow copy of the computed one, so wire plan
// fingerprints are bit-identical across duplicates.
//
// The batch path does not join in-flight singleflight computations from
// concurrent Optimize calls (a concurrent identical request may compute
// twice); both paths insert through the same store, so answers are
// unaffected.
func (c *Cache) OptimizeBatch(ctx context.Context, jobs []BatchJob, computeBatch BatchComputeFunc) ([]*core.Answer, error) {
	answers := make([]*core.Answer, len(jobs))
	keys := make([]Key, len(jobs))
	firstOf := make(map[string]int, len(jobs)) // key → position of first miss
	dups := make(map[int][]int)                // first-miss position → duplicate positions
	var miss []BatchJob
	var missPos []int

	// Keys first, lock second, as Lookup, Insert and Optimize do: a key
	// is a full wire encoding of the job, and every concurrent user of
	// the cache would wait behind it. Entry reply frames encode every
	// computed plan, so they (and the sizes) are made before the second
	// lock for the same reason.
	for i, job := range jobs {
		keys[i] = c.KeyOf(job.Query, job.Spec)
	}
	c.mu.Lock()
	for i, job := range jobs {
		if e := c.lookupLocked(keys[i]); e != nil {
			ans, snap := c.hitLocked(e)
			answers[i] = stamped(ans, snap, true, false)
			continue
		}
		if first, ok := firstOf[keys[i].Bytes]; ok {
			dups[first] = append(dups[first], i)
			continue
		}
		firstOf[keys[i].Bytes] = i
		miss = append(miss, job)
		missPos = append(missPos, i)
	}
	c.mu.Unlock()

	if len(miss) == 0 {
		return answers, nil
	}
	computed, err := computeBatch(ctx, miss)
	if err != nil {
		return nil, err
	}
	if len(computed) != len(miss) {
		return nil, fmt.Errorf("cache: batch compute returned %d answers for %d jobs", len(computed), len(miss))
	}
	sizes := make([]int64, len(computed))
	replies := make([][]byte, len(computed))
	for k, ans := range computed {
		sizes[k] = entrySize(keys[missPos[k]], ans)
		replies[k] = replyOf(ans, miss[k].Spec)
	}

	c.mu.Lock()
	for k, ans := range computed {
		i := missPos[k]
		c.t.Misses++
		c.insertLocked(keys[i], ans, replies[k], sizes[k])
		answers[i] = stamped(ans, c.snapshotLocked(), false, false)
		for _, j := range dups[i] {
			c.t.Collapses++
			answers[j] = stamped(ans, c.snapshotLocked(), false, true)
		}
	}
	c.mu.Unlock()
	return answers, nil
}
