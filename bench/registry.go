package main

// This file is the single list of workload and metric names. The
// self-tests compare it with ../BENCHMARK.json, so a name or a bound
// can only change in both places at once.

// sizes scales the workloads. refSizes is what every published number
// uses; the self-tests shrink it so the smoke run stays fast.
type sizes struct {
	linearN      int // serial-large, mpq8-large: tables of the Linear jobs
	bushyN       int // serial-large, mpq8-large: tables of the Bushy jobs
	moN          int // tcp-mo12: tables
	zipfN        int // serve-zipf8: tables
	zipfDistinct int // serve-zipf8: distinct queries in the stream
	oracleSeeds  int // brute-force oracle queries per plan space
}

var refSizes = sizes{linearN: 16, bushyN: 12, moN: 12, zipfN: 8, zipfDistinct: 256, oracleSeeds: 8}

// Workload names are fixed: later issues cite them.
const (
	wlSerial = "serial-large"
	wlMPQ8   = "mpq8-large"
	wlTCP    = "tcp-mo12"
	wlServe  = "serve-zipf8"
)

// metricDef describes one reported metric.
type metricDef struct {
	name   string
	unit   string
	better string // "lower" or "higher"
	// contract is the BENCHMARK.json list the metric appears in:
	// "end_to_end" (bounded, reported by every workload with --trace 0)
	// or "per_layer" (unbounded, reported with --trace 1).
	contract string
	// bound is the relative worsening -compare tolerates; 0 means the
	// metric is informational. slack is an absolute allowance on top
	// (setup_s: the larger of the bound and half a second).
	bound float64
	slack float64
	// exact metrics are counts made by the program: they must repeat
	// bit-for-bit for one seed, and -compare requires equality.
	exact bool
	// only lists the workloads the metric is defined on; nil means all.
	// Elsewhere it reads 0 in the --trace 1 output and is omitted from
	// the human-readable report.
	only []string
}

var (
	large  = []string{wlSerial, wlMPQ8}
	notZip = []string{wlSerial, wlMPQ8, wlTCP}
)

// endToEnd are the eight user-visible metrics of the issue. Four of
// them are defined and non-zero on every workload and carry the
// contract's regression bounds; the other four (p99, the per-class
// medians, failed_share) are listed under per_layer in BENCHMARK.json
// because that file requires every end-to-end metric from every
// workload and forbids metrics that read 0. See README.md.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower", contract: "end_to_end", bound: 0.25, slack: 0.5},
	{name: "plans_per_s", unit: "1/s", better: "higher", contract: "end_to_end", bound: 0.25},
	{name: "plan_ms_p50", unit: "ms", better: "lower", contract: "end_to_end", bound: 0.25},
	{name: "plan_ms_p90", unit: "ms", better: "lower", contract: "end_to_end", bound: 0.25},
	{name: "plan_ms_p99", unit: "ms", better: "lower", contract: "per_layer", bound: 0.25, only: []string{wlServe}},
	{name: "linear_ms_p50", unit: "ms", better: "lower", contract: "per_layer", bound: 0.25, only: large},
	{name: "bushy_ms_p50", unit: "ms", better: "lower", contract: "per_layer", bound: 0.25, only: large},
	{name: "failed_share", unit: "share", better: "lower", contract: "per_layer"},
}

func layer(name, unit, better string, only []string) metricDef {
	return metricDef{name: name, unit: unit, better: better, contract: "per_layer", only: only}
}

func exact(name string, only []string) metricDef {
	return metricDef{name: name, unit: "count", better: "lower", contract: "per_layer", exact: true, only: only}
}

// perLayer are the single-layer metrics, in the order of the README's
// layer table. Times are medians over the trace walk's replays, per job
// unless the name says otherwise; counts are totals over one pass of
// the workload's distinct jobs.
var perLayer = []metricDef{
	layer("partition.for_partition_us", "us", "lower", nil),
	layer("partition.enumerate_ms", "ms", "lower", nil),
	layer("partition.split_ms", "ms", "lower", large),
	exact("partition.admissible_sets", nil),

	layer("dp.new_engine_us", "us", "lower", nil),
	layer("dp.process_ms", "ms", "lower", nil),
	layer("dp.finish_us", "us", "lower", nil),
	layer("dp.ns_per_work_unit", "ns", "lower", nil),
	exact("dp.work_units", nil),
	exact("dp.sets_processed", nil),
	exact("dp.splits_tried", nil),
	exact("dp.plans_kept", nil),
	exact("dp.plans_pruned", nil),
	exact("dp.memo_entries_max", nil),
	layer("dp.prune_keep_ratio", "ratio", "lower", nil),
	layer("dp.allocs_per_job", "count", "lower", nil),
	layer("dp.alloc_kb_per_job", "KB", "lower", nil),

	layer("core.worker_ms_max", "ms", "lower", notZip),
	layer("core.worker_ms_sum", "ms", "lower", notZip),
	layer("core.elapsed_minus_max_worker_ms", "ms", "lower", notZip),
	layer("core.final_prune_us", "us", "lower", nil),
	{name: "core.work_ratio", unit: "ratio", better: "lower", contract: "per_layer", exact: true},
	{name: "core.work_skew", unit: "ratio", better: "lower", contract: "per_layer", exact: true},
	layer("core.predicted_speedup", "ratio", "higher", notZip),
	layer("core.measured_speedup", "ratio", "higher", notZip),
	layer("core.parallel_efficiency", "ratio", "higher", notZip),

	exact("mo.partition_plans", []string{wlTCP}),
	exact("mo.frontier_final", []string{wlTCP}),
	layer("mo.merge_us", "us", "lower", []string{wlTCP}),

	layer("wire.encode_request_us", "us", "lower", []string{wlTCP, wlServe}),
	layer("wire.decode_request_us", "us", "lower", []string{wlTCP, wlServe}),
	layer("wire.encode_response_us", "us", "lower", []string{wlTCP, wlServe}),
	layer("wire.decode_response_us", "us", "lower", []string{wlTCP, wlServe}),
	exact("wire.request_bytes", []string{wlTCP, wlServe}),
	exact("wire.response_bytes", []string{wlTCP, wlServe}),

	layer("netrun.worker_roundtrip_ms", "ms", "lower", []string{wlTCP}),
	layer("netrun.worker_overhead_us", "us", "lower", []string{wlTCP}),
	layer("netrun.tcp_minus_inproc_ms", "ms", "lower", []string{wlTCP}),
	layer("netrun.bytes_sent_per_job", "B", "lower", []string{wlTCP}),
	layer("netrun.bytes_received_per_job", "B", "lower", []string{wlTCP}),
	layer("netrun.messages_per_job", "count", "lower", []string{wlTCP}),
	layer("netrun.dials_per_job", "count", "lower", []string{wlTCP}),
	layer("netrun.redispatched", "count", "lower", []string{wlTCP}),
	layer("netrun.speculations", "count", "lower", []string{wlTCP}),
	layer("netrun.ignored_frames", "count", "lower", []string{wlTCP}),

	layer("cache.key_us", "us", "lower", []string{wlServe}),
	layer("cache.hit_us", "us", "lower", []string{wlServe}),
	layer("cache.miss_insert_us", "us", "lower", []string{wlServe}),
	layer("cache.hit_ratio", "ratio", "higher", []string{wlServe}),
	layer("cache.evictions_per_1k", "count", "lower", []string{wlServe}),
	layer("cache.collapses", "count", "lower", []string{wlServe}),
	layer("cache.collisions", "count", "lower", []string{wlServe}),
	layer("cache.bytes", "B", "lower", []string{wlServe}),

	layer("server.wire_roundtrip_us", "us", "lower", []string{wlServe}),
	layer("server.overhead_us", "us", "lower", []string{wlServe}),
	layer("server.http_roundtrip_us", "us", "lower", []string{wlServe}),
	layer("server.rejected", "count", "lower", []string{wlServe}),

	layer("runtime.gc_cycles", "count", "lower", nil),
	layer("runtime.gc_pause_ms", "ms", "lower", nil),
	layer("runtime.heap_inuse_peak_mb", "MB", "lower", nil),
	layer("runtime.alloc_mb_per_1k_plans", "MB", "lower", nil),
	layer("runtime.goroutines_end", "count", "lower", nil),
	layer("runtime.machine_slowdown", "ratio", "lower", nil),

	layer("trace.walk_vs_e2e_ratio", "ratio", "lower", nil),
}

// allMetrics is the registry in report order.
func allMetrics() []metricDef {
	return append(append([]metricDef(nil), endToEnd...), perLayer...)
}

func metricByName(name string) (metricDef, bool) {
	for _, m := range allMetrics() {
		if m.name == name {
			return m, true
		}
	}
	return metricDef{}, false
}

// isTime reports whether the metric is a time or a rate, which the
// reports carry on both clocks.
func (m metricDef) isTime() bool {
	switch m.unit {
	case "s", "ms", "us", "ns", "1/s":
		return true
	}
	return false
}

// appliesTo reports whether the metric is defined on the workload.
func (m metricDef) appliesTo(workload string) bool {
	if m.only == nil {
		return true
	}
	for _, w := range m.only {
		if w == workload {
			return true
		}
	}
	return false
}
