package core

import (
	"time"

	"mpq/internal/sched"
)

// NetStats records the measured TCP traffic of one distributed
// optimization (or one query's share of a batch). It lives in core —
// rather than in the TCP runtime that fills it — so an engine-agnostic
// Answer can carry it without the algorithm layer importing a
// transport; internal/netrun aliases it.
type NetStats struct {
	// BytesSent is master → workers traffic: payloads plus frame headers.
	BytesSent uint64
	// BytesReceived is workers → master traffic, including frames the
	// master received but ignored (duplicates, stale responses).
	BytesReceived uint64
	// Messages counts point-to-point frames in both directions.
	Messages int
	// Dials counts TCP connections the master opened for this call. A
	// call takes the connections an earlier call left warm before it
	// dials, and a batch shares its connections across queries, so
	// each worker is dialed at most once per call, and not at all by
	// a call after a healthy one; failures add redials.
	Dials int
	// IgnoredFrames counts well-formed frames the master discarded
	// because their sequence number did not match the job in flight —
	// duplicated or stale responses replayed by the network. Each is
	// attributed to the query whose request originally produced it. A
	// duplicate that arrives after its call ended is counted by no
	// call: the connection's read loop drops it while the connection
	// is idle, and the next call to take the connection did not send
	// the request it answers.
	IgnoredFrames int
	// Counters is what the scheduling policy did for this query.
	sched.Counters
}

// CacheStats records how a plan cache served one answer, plus a
// snapshot of the cache-wide counters at that moment. It lives in core
// — rather than in the cache that fills it — so the engine-agnostic
// Answer can carry it without the algorithm layer importing the cache;
// internal/cache fills it.
type CacheStats struct {
	// Hit reports that this answer was served from the cache without
	// running the dynamic program.
	Hit bool
	// Collapsed reports that this answer was shared from a concurrent
	// identical request's flight (singleflight): some other caller ran
	// the dynamic program, this caller only waited.
	Collapsed bool
	// Hits, Misses, Collapses and Evictions are the cache's cumulative
	// counters at the time the answer was served.
	Hits, Misses, Collapses, Evictions uint64
	// Entries and Bytes are the cache's occupancy at that time.
	Entries int
	Bytes   int64
}

// ClusterMetrics is the simulated shared-nothing cluster's measurement
// record — one row of the paper's figures. It lives in core so a
// simulator Answer can carry it; internal/cluster aliases it as
// cluster.Metrics.
type ClusterMetrics struct {
	// Bytes is the total traffic over the network (both directions),
	// the "Network (bytes)" axis.
	Bytes uint64
	// Messages is the number of point-to-point messages.
	Messages int
	// Rounds is the number of master↔worker communication rounds
	// (always 1 for MPQ; n-1 for SMA).
	Rounds int
	// VirtualTime is the master-observed end-to-end optimization time,
	// the "Time (ms)" axis. The "W-Time" and "Memory (relations)" axes
	// are the Answer's MaxWorkerElapsed and Stats.MemoEntries.
	VirtualTime time.Duration
	// Counters is what the simulated master's policy did.
	sched.Counters
	// RecoveryOverhead is VirtualTime minus what the same run would have
	// taken failure-free — the cost of detection plus re-dispatch (zero
	// in a failure-free run). Computed from the schedule, not by
	// re-running the optimizer.
	RecoveryOverhead time.Duration
	// WastedWork is the DP work (in work units) burned by speculative-
	// race losers before their cancel arrived — compute that produced no
	// aggregated answer. Zero when nothing was speculated.
	WastedWork uint64
}
