// Package cache implements the plan cache that any execution engine
// can wear (mpq.WithCache): at served-traffic volumes most optimization
// requests are exact repeats, and not running the dynamic program at
// all beats any amount of DP tuning.
//
// Three mechanisms compose:
//
//   - A canonical key. The cache key is the wire encoding of the full
//     job — join-graph shape, table cardinalities, selectivities, plan
//     space, worker count, objective, pruner configuration and cost
//     model — so anything that could change the chosen plan changes the
//     key, and nothing else does. Stored answers and in-flight work are
//     both indexed by these bytes in full, so two jobs share an answer
//     only if their encodings are equal.
//
//   - Singleflight collapsing (see singleflight.go). N concurrent
//     identical requests run one dynamic program; the other N-1 wait
//     and share the answer. A canceled leader hands leadership to a
//     waiting follower instead of poisoning the flight.
//
//   - GreedyDual-Size-Frequency eviction under a byte budget
//     (Cherkasova, 1998): each entry's eviction priority is the running
//     inflation level plus freq·cost/size, where cost is the DP's
//     deterministic work-unit counter and freq counts the entry's
//     references — 1 at insert, one more per hit. Plans that are asked
//     for often, or are expensive to recompute, outlive cheap one-off
//     ones of equal recency. freq saturates at freqCap, as TinyLFU's
//     4-bit counters do, so everything still ages out: an uncapped count
//     lets a plan that was hot once hold its place long after its
//     traffic moved on. Budget, priorities and sizes are all
//     deterministic, so eviction order is reproducible.
//
// Cached answers are bit-identical (wire plan fingerprint) to uncached
// ones by construction: the cache stores the engine's answer and serves
// shallow copies that share the immutable plan trees. Hit/miss/evict/
// collapse counters are surfaced per answer through core.Answer.Cache
// and in aggregate through Totals.
//
// Each entry also keeps its answer's wire reply frame (wire.AnswerFrame,
// Seq 0), encoded once at insert, so that a serving front can answer a
// repeated wire request by its bytes alone (AppendWireHit): no query
// decoded, no key re-encoded, no plan re-encoded. The frame is not
// charged to the byte budget; entrySize is what it was before entries
// kept it, so a stream evicts in the same order either way.
package cache

import (
	"container/heap"
	"sync"
	"unsafe"

	"mpq/internal/core"
	"mpq/internal/plan"
	"mpq/internal/query"
	"mpq/internal/wire"
)

// Config parameterizes a Cache.
type Config struct {
	// MaxBytes is the eviction budget: the sum of entry sizes (encoded
	// key + encoded plans + bookkeeping) is kept at or below it.
	// 0 means unlimited.
	MaxBytes int64
}

// Totals is a snapshot of the cache-wide counters.
type Totals struct {
	// Hits counts lookups served from a stored entry.
	Hits uint64
	// Misses counts dynamic programs actually run on behalf of the
	// cache (singleflight leaders and batch-path computes).
	Misses uint64
	// Collapses counts requests that shared another request's work: a
	// singleflight follower, or a duplicate job inside one batch.
	Collapses uint64
	// Evictions counts entries removed to respect MaxBytes.
	Evictions uint64
	// Collisions is always zero: entries are indexed by their full keys,
	// so no two jobs share an index. It stays for readers of the field.
	Collisions uint64
	// Entries and Bytes are the current occupancy.
	Entries int
	Bytes   int64
}

// freqCap saturates an entry's reference count, like TinyLFU's 4-bit
// counters. An entry referenced n times stands n cost-per-byte bonuses
// above the inflation level, which climbs only as churn is evicted;
// uncapped, plans that were hot before a popularity shift crowd out the
// new hot set for about as long as they were popular.
const freqCap = 15

// entry is one cached answer with its GreedyDual-Size-Frequency
// accounting.
type entry struct {
	key   string
	ans   *core.Answer
	reply []byte // ans's wire reply frame with Seq 0 (replyOf); read-only
	bytes int64
	cost  float64 // deterministic recompute cost (DP work units)
	freq  int     // references: 1 at insert, +1 per hit, at most freqCap
	h     float64 // priority: inflation at last touch + freq·cost/bytes
	seq   uint64  // insertion order, the deterministic tiebreak
	hidx  int     // index in the eviction heap
}

// Cache is a plan cache keyed by canonical job bytes, with singleflight
// collapsing and GreedyDual-Size-Frequency eviction. The zero value is
// not usable; call New. All methods are safe for concurrent use.
type Cache struct {
	mu       sync.Mutex
	entries  map[string]*entry  // key → stored answer
	flights  map[string]*flight // key → in-flight computation
	evict    entryHeap
	lval     float64 // GreedyDual inflation level (max evicted priority)
	bytes    int64
	maxBytes int64
	seq      uint64
	t        Totals
}

// New returns an empty cache.
func New(cfg Config) *Cache {
	return &Cache{
		entries:  make(map[string]*entry),
		flights:  make(map[string]*flight),
		maxBytes: cfg.MaxBytes,
	}
}

// KeyOf builds the canonical cache key for (q, spec): the wire job
// encoding — the exact bytes a master would send a worker for this job
// — made canonical by wire.CanonicalJobKey (sequence and partition
// zero, α and the robust band as the objective reads them).
// Everything that changes the chosen plan (statistics, join graph, plan
// space, worker count, objective, α, order flags, cost model) is in the
// encoding; nothing else is. A wire request frame for the job keys to
// the same bytes, which is how AppendWireHit finds an entry without
// decoding the frame. The key is the encoding's own buffer, which
// nothing writes after CanonicalJobKey: one allocation, not a copy.
func (c *Cache) KeyOf(q *query.Query, spec core.JobSpec) string {
	b := encodeJob(q, spec)
	wire.CanonicalJobKey(b)
	return unsafe.String(unsafe.SliceData(b), len(b))
}

// encodeJob is a variable so a test can see whether a key is encoded
// with the cache mutex held. The request is built inside it, so that it
// does not escape through the indirect call.
var encodeJob = func(q *query.Query, spec core.JobSpec) []byte {
	return wire.EncodeJobRequest(&wire.JobRequest{Spec: spec, Query: q})
}

// AppendWireHit answers a wire job request from the store without
// decoding it. req is a job-request payload as wire.ReadFrame returns
// it. If its canonical key (wire.CanonicalJobKey) is stored, the entry's
// reply frame — length prefix included, Seq set to req's — is appended
// to dst, the hit is counted as Lookup counts one, and the stored answer
// is returned as well (shared and read-only, not stamped). Otherwise dst
// comes back unchanged with nil and false, nothing is counted, and the
// caller serves req the usual way. A frame that would not decode never
// hits: a stored key is the canonical encoding of a valid job, and a
// frame that keys to it differs from it only in fields the decoder does
// not check (FuzzFrameKey). Nothing allocates unless dst must grow.
func (c *Cache) AppendWireHit(dst, req []byte) ([]byte, *core.Answer, bool) {
	n := len(dst)
	dst = append(dst, req...)
	key := dst[n:]
	if !wire.CanonicalJobKey(key) {
		return dst[:n], nil, false
	}
	c.mu.Lock()
	e := c.entries[string(key)]
	if e == nil || e.reply == nil {
		c.mu.Unlock()
		return dst[:n], nil, false
	}
	ans, _ := c.hitLocked(e)
	reply := e.reply
	c.mu.Unlock()
	dst = append(dst[:n], reply...)
	wire.SetFrameSeq(dst[n:], wire.PeekJobRequestSeq(req))
	return dst, ans, true
}

// Totals returns a snapshot of the cache-wide counters.
func (c *Cache) Totals() Totals {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.snapshotLocked()
}

func (c *Cache) snapshotLocked() Totals {
	t := c.t
	t.Entries = len(c.evict)
	t.Bytes = c.bytes
	return t
}

// Lookup returns the cached answer for (q, spec) as a shallow copy
// stamped as a hit, or (nil, false). The copy shares the stored plan
// trees — they are immutable — so its wire fingerprints equal the
// original answer's.
func (c *Cache) Lookup(q *query.Query, spec core.JobSpec) (*core.Answer, bool) {
	key := c.KeyOf(q, spec)
	c.mu.Lock()
	e := c.entries[key]
	if e == nil {
		c.mu.Unlock()
		return nil, false
	}
	ans, snap := c.hitLocked(e)
	c.mu.Unlock()
	return stamped(ans, snap, true, false), true
}

// Insert stores an answer for (q, spec), evicting as needed. The cache
// keeps the answer as given; callers must not mutate it afterwards.
func (c *Cache) Insert(q *query.Query, spec core.JobSpec, ans *core.Answer) {
	key := c.KeyOf(q, spec)
	reply, size := replyOf(ans, spec), entrySize(key, ans)
	c.mu.Lock()
	c.insertLocked(key, ans, reply, size)
	c.mu.Unlock()
}

// hitLocked counts one reference to a stored entry, the hit counter and
// the entry's priority, and returns its answer with the totals to
// stamp it with. Every path that serves a stored entry goes through it.
func (c *Cache) hitLocked(e *entry) (*core.Answer, Totals) {
	c.t.Hits++
	c.touchLocked(e)
	return e.ans, c.snapshotLocked()
}

// touchLocked refreshes an entry's priority on a hit: one more
// reference, up to freqCap, and back to the current inflation level
// plus freq times its cost-per-byte bonus.
func (c *Cache) touchLocked(e *entry) {
	if e.freq < freqCap {
		e.freq++
	}
	e.h = c.lval + float64(e.freq)*e.cost/float64(e.bytes)
	heap.Fix(&c.evict, e.hidx)
}

// insertLocked stores (key → ans, with its reply frame) at size bytes
// (replyOf and entrySize, both computed before the lock), replacing an
// exact-key entry if one exists, with a fresh reference count, and
// evicting the lowest-priority entries until the budget holds. An
// answer larger than the whole budget is not cached, and the key's old
// entry is dropped all the same: the key never serves an answer older
// than the last one it was given.
func (c *Cache) insertLocked(key string, ans *core.Answer, reply []byte, size int64) {
	if old := c.entries[key]; old != nil {
		c.removeLocked(old)
	}
	if c.maxBytes > 0 && size > c.maxBytes {
		return
	}
	for c.maxBytes > 0 && c.bytes+size > c.maxBytes && len(c.evict) > 0 {
		victim := heap.Pop(&c.evict).(*entry)
		if victim.h > c.lval {
			c.lval = victim.h
		}
		delete(c.entries, victim.key)
		c.bytes -= victim.bytes
		c.t.Evictions++
	}
	c.seq++
	e := &entry{
		key:   key,
		ans:   ans,
		reply: reply,
		bytes: size,
		cost:  float64(ans.Stats.WorkUnits() + 1),
		freq:  1,
		seq:   c.seq,
	}
	e.h = c.lval + float64(e.freq)*e.cost/float64(e.bytes)
	heap.Push(&c.evict, e)
	c.entries[key] = e
	c.bytes += size
}

// removeLocked deletes an entry from both the heap and the index
// without eviction accounting (used when replacing an exact key).
func (c *Cache) removeLocked(e *entry) {
	heap.Remove(&c.evict, e.hidx)
	delete(c.entries, e.key)
	c.bytes -= e.bytes
}

// entrySize is the deterministic byte accounting of one entry: the
// encoded key, the encoded best plan and frontier (what a worker would
// put on the wire for this answer, measured by wire.PlanLen without
// encoding), plus a fixed bookkeeping overhead. The entry's reply frame
// is not charged.
func entrySize(key string, ans *core.Answer) int64 {
	const overhead = 256 // entry struct, heap slot, index slot, answer struct
	size := int64(len(key)) + overhead
	if ans.Best != nil {
		size += int64(wire.PlanLen(ans.Best))
	}
	for _, p := range ans.Frontier {
		size += int64(wire.PlanLen(p))
	}
	return size
}

// replyOf is the wire reply frame a serving front sends for ans under
// spec, with Seq 0: the one encoding of an entry, made at insert and
// outside the lock. It is nil for an answer without a best plan, which
// AppendWireHit then never serves.
func replyOf(ans *core.Answer, spec core.JobSpec) []byte {
	if ans.Best == nil {
		return nil
	}
	var frontier []*plan.Node
	if spec.Objective.HasFrontier() {
		frontier = ans.Frontier
	}
	return wire.AnswerFrame(0, ans.Best, frontier, ans.Stats)
}

// stamped returns a shallow copy of ans carrying the per-answer cache
// record. The copy shares Best, Frontier and PerWorker with the cached
// answer — all immutable once optimization finished — so plan
// fingerprints are bit-identical to the original's.
func stamped(ans *core.Answer, snap Totals, hit, collapsed bool) *core.Answer {
	cp := *ans
	cp.Cache = &core.CacheStats{
		Hit:       hit,
		Collapsed: collapsed,
		Hits:      snap.Hits,
		Misses:    snap.Misses,
		Collapses: snap.Collapses,
		Evictions: snap.Evictions,
		Entries:   snap.Entries,
		Bytes:     snap.Bytes,
	}
	return &cp
}

// entryHeap is a min-heap over priority h, ties broken by insertion
// order (older first) so eviction order is deterministic.
type entryHeap []*entry

func (h entryHeap) Len() int { return len(h) }
func (h entryHeap) Less(i, j int) bool {
	if h[i].h != h[j].h {
		return h[i].h < h[j].h
	}
	return h[i].seq < h[j].seq
}
func (h entryHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].hidx, h[j].hidx = i, j
}
func (h *entryHeap) Push(x any) {
	e := x.(*entry)
	e.hidx = len(*h)
	*h = append(*h, e)
}
func (h *entryHeap) Pop() any {
	old := *h
	e := old[len(old)-1]
	old[len(old)-1] = nil
	*h = old[:len(old)-1]
	return e
}
