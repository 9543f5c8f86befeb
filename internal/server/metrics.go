package server

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"mpq"
	"mpq/internal/sched"
)

// latencyBuckets are the request-latency histogram's upper bounds, in
// seconds. Chosen to resolve both cache hits (microseconds) and large
// bushy optimizations (tens of seconds).
var latencyBuckets = [numLatencyBuckets]float64{0.0005, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1, 5, 30}

const numLatencyBuckets = 10

// seriesKey identifies one labeled counter series.
type seriesKey struct {
	tenant  string
	source  string
	outcome string
}

// metrics aggregates the daemon's operational counters and renders them
// in Prometheus text exposition format. Hand-rolled: the repo takes no
// dependencies, and the text format is a stable few lines of writer
// code.
type metrics struct {
	mu         sync.Mutex
	requests   map[seriesKey]uint64
	queueDepth int

	latCounts [len(latencyBuckets) + 1]uint64 // +1: the +Inf bucket
	latSum    float64
	latTotal  uint64

	// counters totals the scheduling counters of every answer the daemon
	// served, from Answer.Net (TCP engine) or Answer.Cluster (simulator);
	// zero for engines without a scheduler.
	counters sched.Counters
}

func newMetrics() *metrics {
	return &metrics{requests: map[seriesKey]uint64{}}
}

// observe records one finished request with its service latency.
func (m *metrics) observe(tenant, source, outcome string, served time.Duration) {
	secs := served.Seconds()
	m.mu.Lock()
	defer m.mu.Unlock()
	m.requests[seriesKey{tenant, source, outcome}]++
	i := sort.SearchFloat64s(latencyBuckets[:], secs)
	m.latCounts[i]++
	m.latSum += secs
	m.latTotal++
}

// observeAnswer folds one served answer's scheduler counters into the
// daemon-wide straggler totals. An answer the plan cache handed back,
// stored or shared from a concurrent flight, carries the counters of
// the computation that made it, which were counted then.
func (m *metrics) observeAnswer(ans *mpq.Answer) {
	var n sched.Counters
	switch {
	case ans.Cache != nil && (ans.Cache.Hit || ans.Cache.Collapsed):
		return
	case ans.Net != nil:
		n = ans.Net.Counters
	case ans.Cluster != nil:
		n = ans.Cluster.Counters
	default:
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.counters.Add(n)
}

// reject records one request refused at admission ("overloaded" or
// "draining").
func (m *metrics) reject(tenant, source, reason string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.requests[seriesKey{tenant, source, reason}]++
}

// setQueueDepth tracks the arrival queue's occupancy. Called with the
// server mutex held, so it only stores.
func (m *metrics) setQueueDepth(n int) {
	m.mu.Lock()
	m.queueDepth = n
	m.mu.Unlock()
}

// snapshot is the immutable copy taken for one scrape.
type snapshot struct {
	requests   map[seriesKey]uint64
	queueDepth int
	latCounts  [len(latencyBuckets) + 1]uint64
	latSum     float64
	latTotal   uint64
	counters   sched.Counters
}

func (m *metrics) snapshot() snapshot {
	m.mu.Lock()
	defer m.mu.Unlock()
	s := snapshot{
		requests:   make(map[seriesKey]uint64, len(m.requests)),
		queueDepth: m.queueDepth,
		latCounts:  m.latCounts,
		latSum:     m.latSum,
		latTotal:   m.latTotal,
		counters:   m.counters,
	}
	for k, v := range m.requests {
		s.requests[k] = v
	}
	return s
}

// write renders the scrape. extra carries gauges owned by other
// components (in-flight count, plan-log and cache counters), already
// formatted as name → value.
func (s snapshot) write(w io.Writer, extra []metricKV) {
	fmt.Fprintf(w, "# HELP mpqd_queue_depth Requests admitted but not yet dispatched.\n")
	fmt.Fprintf(w, "# TYPE mpqd_queue_depth gauge\n")
	fmt.Fprintf(w, "mpqd_queue_depth %d\n", s.queueDepth)

	fmt.Fprintf(w, "# HELP mpqd_requests_total Requests by tenant, front end and outcome.\n")
	fmt.Fprintf(w, "# TYPE mpqd_requests_total counter\n")
	keys := make([]seriesKey, 0, len(s.requests))
	for k := range s.requests {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.tenant != b.tenant {
			return a.tenant < b.tenant
		}
		if a.source != b.source {
			return a.source < b.source
		}
		return a.outcome < b.outcome
	})
	for _, k := range keys {
		fmt.Fprintf(w, "mpqd_requests_total{tenant=%q,source=%q,outcome=%q} %d\n",
			k.tenant, k.source, k.outcome, s.requests[k])
	}

	fmt.Fprintf(w, "# HELP mpqd_request_seconds Service latency of dispatched requests.\n")
	fmt.Fprintf(w, "# TYPE mpqd_request_seconds histogram\n")
	cum := uint64(0)
	for i, le := range latencyBuckets {
		cum += s.latCounts[i]
		fmt.Fprintf(w, "mpqd_request_seconds_bucket{le=%q} %d\n", trimFloat(le), cum)
	}
	cum += s.latCounts[len(latencyBuckets)]
	fmt.Fprintf(w, "mpqd_request_seconds_bucket{le=\"+Inf\"} %d\n", cum)
	fmt.Fprintf(w, "mpqd_request_seconds_sum %g\n", s.latSum)
	fmt.Fprintf(w, "mpqd_request_seconds_count %d\n", s.latTotal)

	fmt.Fprintf(w, "# HELP mpqd_speculations_total Speculative clones the master raced against stragglers.\n")
	fmt.Fprintf(w, "# TYPE mpqd_speculations_total counter\n")
	fmt.Fprintf(w, "mpqd_speculations_total %d\n", s.counters.Speculations)
	fmt.Fprintf(w, "# HELP mpqd_speculation_wasted_total Speculative race results discarded by the master.\n")
	fmt.Fprintf(w, "# TYPE mpqd_speculation_wasted_total counter\n")
	fmt.Fprintf(w, "mpqd_speculation_wasted_total %d\n", s.counters.SpeculationWasted)
	fmt.Fprintf(w, "# HELP mpqd_probes_total Re-admission probes sent to excluded workers.\n")
	fmt.Fprintf(w, "# TYPE mpqd_probes_total counter\n")
	fmt.Fprintf(w, "mpqd_probes_total %d\n", s.counters.Probes)
	fmt.Fprintf(w, "# HELP mpqd_readmitted_total Excluded workers that answered a probe and rejoined.\n")
	fmt.Fprintf(w, "# TYPE mpqd_readmitted_total counter\n")
	fmt.Fprintf(w, "mpqd_readmitted_total %d\n", s.counters.Readmitted)
	fmt.Fprintf(w, "# HELP mpqd_redispatched_total Partitions re-sent after a worker failure.\n")
	fmt.Fprintf(w, "# TYPE mpqd_redispatched_total counter\n")
	fmt.Fprintf(w, "mpqd_redispatched_total %d\n", s.counters.Redispatched)

	for _, kv := range extra {
		fmt.Fprintf(w, "# TYPE %s %s\n", kv.name, kv.kind)
		fmt.Fprintf(w, "%s %v\n", kv.name, kv.value)
	}
}

// metricKV is one unlabeled series contributed by another component.
type metricKV struct {
	name  string
	kind  string // "counter" or "gauge"
	value any
}

// trimFloat formats a bucket bound without trailing zeros (0.5, not
// 0.500000), matching conventional Prometheus output.
func trimFloat(f float64) string { return fmt.Sprintf("%g", f) }
