package cache

import (
	"math/rand"
	"sort"
	"testing"

	"mpq/internal/core"
	"mpq/internal/partition"
	"mpq/internal/query"
)

// streamKeys is the key space of the stream tests, streamBudget the
// number of (equal-size) entries their cache holds: a quarter of it.
const (
	streamKeys   = 256
	streamBudget = 64
)

// streamCache builds a cache that holds streamBudget entries of equal
// size and cost and returns a function that serves one request for key
// k (0 ≤ k < streamKeys) through it — Lookup, then Insert on a miss —
// and reports whether it hit. Keys differ only in the spec's worker
// count, a fixed-width field of the encoded key, so no DP runs after
// setup and every entry is the same size.
func streamCache(t *testing.T) func(k int) bool {
	t.Helper()
	q := genQuery(t, 4, 11)
	ans := withCost(mustAnswer(t, q, core.JobSpec{Space: partition.Linear, Workers: 1}), 100)
	spec := func(k int) core.JobSpec { return core.JobSpec{Space: partition.Linear, Workers: k + 1} }
	probe := New(Config{})
	probe.Insert(q, spec(0), ans)
	c := New(Config{MaxBytes: streamBudget * probe.Totals().Bytes})
	return func(k int) bool {
		if _, ok := c.Lookup(q, spec(k)); ok {
			return true
		}
		c.Insert(q, spec(k), ans)
		return false
	}
}

// hitRatio replays n requests drawn by next and returns the share that
// hit.
func hitRatio(n int, serve func(int) bool, next func() int) float64 {
	hits := 0
	for i := 0; i < n; i++ {
		if serve(next()) {
			hits++
		}
	}
	return float64(hits) / float64(n)
}

// zipfStream draws keys from a seeded Zipf(s) over streamKeys keys:
// key k has popularity rank k.
func zipfStream(seed int64, s float64) func() int {
	z := rand.NewZipf(rand.New(rand.NewSource(seed)), s, 1, streamKeys-1)
	return func() int { return int(z.Uint64()) }
}

// TestZipfStreamHitRatio: on a Zipf 1.1 stream with a cache a quarter
// of the key space, counting references keeps the popular plans. Every
// entry has the same cost and size, so GreedyDual-Size alone is LRU
// here and hits about 0.72; keeping the 63 most popular keys would hit
// about 0.82.
func TestZipfStreamHitRatio(t *testing.T) {
	serve := streamCache(t)
	next := zipfStream(1, 1.1)
	hitRatio(10_000, serve, next)
	got := hitRatio(50_000, serve, next)
	t.Logf("Zipf 1.1 hit ratio %.3f", got)
	if got < 0.77 {
		t.Fatalf("Zipf 1.1 hit ratio %.3f, want >= 0.77", got)
	}
}

// TestUniformStreamHitRatio: with no popularity to learn, the counts
// must not cost hits: a uniform stream hits budget/keys = 0.25, as LRU
// does.
func TestUniformStreamHitRatio(t *testing.T) {
	serve := streamCache(t)
	r := rand.New(rand.NewSource(1))
	next := func() int { return r.Intn(streamKeys) }
	hitRatio(10_000, serve, next)
	got := hitRatio(50_000, serve, next)
	t.Logf("uniform hit ratio %.3f", got)
	if got < 0.24 {
		t.Fatalf("uniform hit ratio %.3f, want >= 0.24", got)
	}
}

// TestPopularityShift: when the hot set moves to keys that were cold,
// the old hot entries must age out. Their counts saturate at freqCap,
// so the inflation level overtakes them after a bounded number of
// evictions; an uncapped count keeps them resident for as many
// evictions as they had hits and the stream after the shift hits about
// 0.70, below LRU's 0.71.
func TestPopularityShift(t *testing.T) {
	serve := streamCache(t)
	next := zipfStream(1, 1.1)
	hitRatio(50_000, serve, next)
	rotated := func() int { return (next() + streamKeys/2) % streamKeys }
	got := hitRatio(50_000, serve, rotated)
	t.Logf("hit ratio after the shift %.3f", got)
	if got < 0.75 {
		t.Fatalf("hit ratio after the shift %.3f, want >= 0.75", got)
	}
}

// resident reports whether (q, spec) is stored, without counting a
// reference the way Lookup does.
func resident(c *Cache, q *query.Query, spec core.JobSpec) bool {
	key := c.KeyOf(q, spec)
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lookupLocked(key) != nil
}

// TestHotEntrySurvival: an entry hit k times holds at least k times its
// cost-per-byte bonus over the inflation level, so one-hit churn must
// raise the level by that much to evict it — and by no more than
// freqCap times the bonus however often it was hit.
func TestHotEntrySurvival(t *testing.T) {
	q := genQuery(t, 4, 12)
	ans := mustAnswer(t, q, core.JobSpec{Space: partition.Linear, Workers: 1})
	spec := func(w int) core.JobSpec { return core.JobSpec{Space: partition.Linear, Workers: w} }
	probe := New(Config{})
	probe.Insert(q, spec(1), ans)
	size := probe.Totals().Bytes
	bonus := 100 / float64(size) // withCost(ans, 99) costs 100 work units

	for _, hits := range []int{1, 4, 14, 40} {
		c := New(Config{MaxBytes: 3 * size})
		c.Insert(q, spec(1), withCost(ans, 99))
		for i := 0; i < hits; i++ {
			if _, ok := c.Lookup(q, spec(1)); !ok {
				t.Fatalf("%d hits: the hot entry missed before any churn", hits)
			}
		}
		// One-hit churn costs 1: the level climbs 1/size every two
		// evictions, so freqCap bonuses take 2·freqCap·100 inserts.
		for w := 2; resident(c, q, spec(1)); w++ {
			if w > 4*freqCap*100 {
				t.Fatalf("%d hits: the hot entry outlived %d churn inserts", hits, w)
			}
			c.Insert(q, spec(w), withCost(ans, 0))
		}
		// The level starts at 0 and the eviction raised it to the hot
		// entry's priority: the churn it outlived, in bonuses.
		outlived := c.lval / bonus
		t.Logf("%d hits: outlived %.2f bonuses of churn", hits, outlived)
		if outlived < float64(min(hits, freqCap))*(1-1e-9) {
			t.Errorf("%d hits: evicted after %.2f bonuses of churn, want >= %d", hits, outlived, min(hits, freqCap))
		}
		if outlived > freqCap*(1+1e-9) {
			t.Errorf("%d hits: outlived %.2f bonuses of churn, want <= %d", hits, outlived, freqCap)
		}
	}
}

// FuzzEviction feeds two caches the same sequence of Inserts and
// Lookups and checks the eviction invariants after every operation.
// budget sets MaxBytes in sixteenths of the smallest entry (0:
// unlimited). Each byte b of data is one operation on the key whose
// spec has Workers b&15+1: a Lookup if b < 0x80, else an Insert of an
// answer with 3, 5 or 7 tables ((b>>4&7)%3 picks) and a recompute cost
// from the next byte. The second cache hashes every key to one
// fingerprint, so all its entries share one collision chain;
// fingerprints must not change what either cache keeps.
func FuzzEviction(f *testing.F) {
	q := genQuery(f, 4, 13)
	tables := []int{3, 5, 7} // plans of three sizes
	answers := make([]*core.Answer, len(tables))
	for i, n := range tables {
		answers[i] = mustAnswer(f, genQuery(f, n, 13), core.JobSpec{Space: partition.Linear, Workers: 1})
	}
	spec := func(b byte) core.JobSpec { return core.JobSpec{Space: partition.Linear, Workers: int(b&15) + 1} }
	probe := New(Config{})
	probe.Insert(q, spec(0), answers[0])
	unit := probe.Totals().Bytes / 16

	// Three equal entries, then a hit on the heap's root.
	f.Add(uint8(0), []byte{0x80, 0x10, 0x81, 0x10, 0x82, 0x10, 0x00})
	// One entry hit past freqCap.
	f.Add(uint8(0), []byte{0x80, 0x10, 0x81, 0x20, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0})
	// A four-entry budget under churn of mixed sizes and costs, with
	// replacements and hits.
	f.Add(uint8(64), []byte{0x80, 0xff, 0x91, 0x01, 0xa2, 0x30, 0x03, 0xb3, 0x02, 0x00, 0x81, 0x40, 0xc4, 0x05, 0x04, 0x85, 0x01, 0x01, 0x00, 0xd6, 0x80})
	// A budget smaller than the largest entry.
	f.Add(uint8(20), []byte{0xa0, 0x10, 0x81, 0x10, 0x01, 0xa1, 0x10, 0x01, 0x82, 0x01})

	f.Fuzz(func(t *testing.T, budget uint8, data []byte) {
		maxBytes := int64(budget) * unit
		a := New(Config{MaxBytes: maxBytes})
		b := New(Config{MaxBytes: maxBytes})
		b.hashFn = func([]byte) uint64 { return 7 }
		stored := map[byte]*core.Answer{} // key → the answer it must serve
		for i := 0; i < len(data); i++ {
			op := data[i]
			k := op & 15
			if op < 0x80 {
				gotA, okA := a.Lookup(q, spec(k))
				gotB, okB := b.Lookup(q, spec(k))
				if okA != okB {
					t.Fatalf("op %d: key %d hit %v in one cache, %v in the other", i, k, okA, okB)
				}
				if okA && stored[k] == nil {
					t.Fatalf("op %d: key %d hit, but its last answer was too large to cache", i, k)
				}
				if okA && (gotA.Best != stored[k].Best || gotA.Stats != stored[k].Stats || gotB.Best != stored[k].Best || gotB.Stats != stored[k].Stats) {
					t.Fatalf("op %d: key %d served an answer it was not given", i, k)
				}
			} else {
				var cost uint64
				if i+1 < len(data) {
					i++
					cost = uint64(data[i]) * uint64(data[i])
				}
				ans := withCost(answers[(op>>4&7)%3], cost)
				a.Insert(q, spec(k), ans)
				b.Insert(q, spec(k), ans)
				// An answer larger than the whole budget is not cached,
				// and the key's old answer goes with it.
				if maxBytes == 0 || entrySize(a.KeyOf(q, spec(k)), ans) <= maxBytes {
					stored[k] = ans
				} else {
					delete(stored, k)
				}
			}
			checkEvictionInvariants(t, i, a)
			checkEvictionInvariants(t, i, b)
			ta, tb := a.Totals(), b.Totals()
			ta.Collisions, tb.Collisions = 0, 0
			if ta != tb || a.lval != b.lval {
				t.Fatalf("op %d: the caches diverged: %+v level %g against %+v level %g", i, ta, a.lval, tb, b.lval)
			}
			oa, ob := evictionOrder(a), evictionOrder(b)
			for j := range oa {
				if oa[j] != ob[j] {
					t.Fatalf("op %d: eviction order differs at position %d", i, j)
				}
			}
		}
	})
}

// checkEvictionInvariants checks c's heap, chains, byte accounting and
// priorities after operation op.
func checkEvictionInvariants(t *testing.T, op int, c *Cache) {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	var sum int64
	for i, e := range c.evict {
		if e.hidx != i {
			t.Fatalf("op %d: heap slot %d holds an entry indexed %d", op, i, e.hidx)
		}
		if p := (i - 1) / 2; i > 0 && c.evict.Less(i, p) {
			t.Fatalf("op %d: heap slot %d (priority %g) sorts before its parent (priority %g)", op, i, e.h, c.evict[p].h)
		}
		if c.lookupLocked(e.key) != e {
			t.Fatalf("op %d: heap slot %d is not its key's chain entry", op, i)
		}
		if e.bytes != entrySize(e.key, e.ans) {
			t.Fatalf("op %d: entry accounted at %d bytes, its size is %d", op, e.bytes, entrySize(e.key, e.ans))
		}
		if bound := c.lval + float64(freqCap)*e.cost/float64(e.bytes); e.h > bound {
			t.Fatalf("op %d: priority %g exceeds level %g + freqCap·cost/bytes = %g", op, e.h, c.lval, bound)
		}
		sum += e.bytes
	}
	chained := 0
	for _, chain := range c.entries {
		chained += len(chain)
	}
	if chained != len(c.evict) {
		t.Fatalf("op %d: %d chained entries, %d in the heap", op, chained, len(c.evict))
	}
	if sum != c.bytes {
		t.Fatalf("op %d: Bytes %d, resident entries sum to %d", op, c.bytes, sum)
	}
	if c.maxBytes > 0 && c.bytes > c.maxBytes {
		t.Fatalf("op %d: Bytes %d exceed MaxBytes %d", op, c.bytes, c.maxBytes)
	}
}

// evictionOrder lists c's resident keys in the order it would evict
// them.
func evictionOrder(c *Cache) []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	es := append([]*entry(nil), c.evict...)
	sort.Slice(es, func(i, j int) bool { return entryHeap(es).Less(i, j) })
	keys := make([]string, len(es))
	for i, e := range es {
		keys[i] = e.key.Bytes
	}
	return keys
}
