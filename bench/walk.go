package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"time"

	"mpq"
	"mpq/internal/bitset"
	"mpq/internal/cache"
	"mpq/internal/core"
	"mpq/internal/dp"
	"mpq/internal/mo"
	"mpq/internal/partition"
	"mpq/internal/plan"
	"mpq/internal/server"
	"mpq/internal/spec"
	"mpq/internal/wire"
)

// The trace walk replays each distinct job by calling the layers'
// public functions itself, in the order core.OptimizeContext, the
// netrun master and the cache call them, with a span around each call.
// Partitions run one after another so a span times its layer alone.
//
// Spans under a replay's root are the real path. Extra measurements —
// dry enumeration, the worker's side of a TCP exchange, the cache's
// miss path — hang under a "dry" span so they do not count as path.

// allocReps is how many replays of a job also count the DP's heap
// allocations, in a second, span-free run on the warm runtime.
const allocReps = 2

// walker carries one workload's walk.
type walker struct {
	t  *tracer
	in *instance
	rt *dp.Runtime // reused by every partition, like a pooled worker's

	serial mpq.Engine
	inproc mpq.Engine
	cache  *cache.Cache // serve-zipf8: the walk's own 64 KiB cache
	httpc  *http.Client

	// samples[metric][job] are per-replay values; a metric reports the
	// mean over jobs of the per-job median.
	samples map[string][][]sample
	counts  map[string]float64 // exact counters, first pass only
	first   bool               // first pass over the jobs
	reps    int                // completed passes over the jobs
	path    []sample           // ms of real-path spans, per replay
	slow    float64            // the machine's slowdown, this replay
	sink    bitset.Set
}

// sample is one replay's value of a metric as measured, with the
// machine's slowdown during that replay (1 for a count, which no clock
// converts).
type sample struct{ v, slow float64 }

// sample records a measured time.
func (w *walker) sample(metric string, ji int, v float64) {
	w.record(metric, ji, sample{v, w.slow})
}

// sampleCount records a per-replay count.
func (w *walker) sampleCount(metric string, ji int, v float64) {
	w.record(metric, ji, sample{v, 1})
}

func (w *walker) record(metric string, ji int, s sample) {
	if w.samples[metric] == nil {
		w.samples[metric] = make([][]sample, len(w.in.jobs))
	}
	w.samples[metric][ji] = append(w.samples[metric][ji], s)
}

func us(d time.Duration) float64 { return float64(d) / 1e3 }
func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// walk replays every distinct job until each has minReps replays and
// budget is spent. The walker it returns holds what was measured.
func walk(ctx context.Context, t *tracer, in *instance, budget time.Duration, minReps int) (*walker, error) {
	w := &walker{
		t: t, in: in, rt: dp.NewRuntime(),
		serial: mpq.NewSerialEngine(), inproc: mpq.NewInProcessEngine(),
		samples: map[string][][]sample{}, counts: map[string]float64{}, first: true,
	}
	if in.def.name == wlServe {
		w.cache = cache.New(cache.Config{MaxBytes: 64 << 10})
		tr := &http.Transport{}
		defer tr.CloseIdleConnections()
		w.httpc = &http.Client{Transport: tr, Timeout: 10 * time.Second}
	}
	t.workload = in.def.name
	start := time.Now()
	for rep := 0; rep < minReps || time.Since(start) < budget; rep++ {
		mark := len(t.spans)
		for ji := range in.jobs {
			if err := w.replay(ctx, ji, rep); err != nil {
				return nil, fmt.Errorf("%s: walk %s: %w", in.def.name, in.jobs[ji].name, err)
			}
		}
		w.first = false
		w.reps++
		if rep >= keepReps { // measured; only the first replays go to the span file
			t.spans = t.spans[:mark]
		}
	}
	return w, nil
}

// replay walks one job once.
func (w *walker) replay(ctx context.Context, ji, rep int) error {
	j := &w.in.jobs[ji]
	w.t.job = j.name
	w.slow = w.in.cal.slowdown(segment)
	root := w.t.begin(0, "job", "trace")
	var err error
	switch w.in.def.name {
	case wlTCP:
		err = w.replayTCP(ctx, root, ji)
	case wlServe:
		err = w.replayServe(ctx, root, ji)
	default:
		_, err = w.replayDP(root, ji)
	}
	if err != nil {
		return err
	}
	dry := w.t.begin(root, "dry", "trace")
	if err := w.dryPartition(dry, ji); err != nil {
		return err
	}
	if rep < allocReps {
		if err := w.countAllocs(ji); err != nil {
			return err
		}
	}
	if w.in.def.name != wlServe { // a repeated daemon call is a cache hit: no speedup to measure
		if err := w.backToBack(ctx, ji); err != nil {
			return err
		}
	}
	w.t.end(dry)
	w.t.end(root)
	var pathNs int64
	for _, s := range w.t.spans[root:] { // the spans opened after root
		if s.Parent == root && s.Name != "dry" {
			pathNs += s.EndNs - s.StartNs
		}
	}
	w.path = append(w.path, sample{ms(time.Duration(pathNs)), w.slow})
	return nil
}

// replayDP walks an in-process job: every partition through partition
// and dp, then the master's final prune. The outside walk must arrive
// at the engine's own plan.
func (w *walker) replayDP(parent, ji int) (*mpq.Answer, error) {
	frontiers, stats, err := w.dpPath(parent, ji)
	if err != nil {
		return nil, err
	}
	best, err := w.finalPrune(parent, ji, frontiers)
	if err != nil {
		return nil, err
	}
	ans := &mpq.Answer{Best: best}
	for _, st := range stats {
		ans.Stats.Add(st)
	}
	return ans, nil
}

// constraintSets decodes the job's partitions.
func constraintSets(j *job) ([]*partition.ConstraintSet, error) {
	css := make([]*partition.ConstraintSet, j.spec.Workers)
	for part := range css {
		cs, err := partition.ForPartition(j.spec.Space, j.q.N(), part, j.spec.Workers)
		if err != nil {
			return nil, err
		}
		css[part] = cs
	}
	return css, nil
}

// runPartition is Algorithm 2 as dp.RunContext drives it.
func runPartition(eng *dp.Engine, cs *partition.ConstraintSet, n int) (sets int) {
	enum := cs.NewEnumerator()
	for k := 2; k <= n; k++ {
		enum.ForEachAdmissible(k, func(u bitset.Set) bool {
			eng.ProcessSet(u)
			sets++
			return true
		})
	}
	return sets
}

// dpPath walks the partitions of a job through partition and dp the way
// core.RunWorkerContext does, one after another.
func (w *walker) dpPath(parent, ji int) ([][]*plan.Node, []plan.Stats, error) {
	j := &w.in.jobs[ji]
	m, n := j.spec.Workers, j.q.N()
	var forPart, newEng, run, finish time.Duration
	var sets int
	var frontiers [][]*plan.Node
	var stats []plan.Stats
	for part := 0; part < m; part++ {
		task := w.t.begin(parent, "core.worker", "core")
		s := w.t.begin(task, "partition.for_partition", "partition")
		cs, err := partition.ForPartition(j.spec.Space, n, part, m)
		forPart += w.t.end(s)
		if err != nil {
			return nil, nil, err
		}
		opts := j.spec.DPOptions()
		opts.Runtime = w.rt
		s = w.t.begin(task, "dp.new_engine", "dp")
		eng, err := dp.NewEngine(j.q, cs, opts)
		newEng += w.t.end(s)
		if err != nil {
			return nil, nil, err
		}
		s = w.t.begin(task, "dp.run", "dp")
		sets += runPartition(eng, cs, n)
		run += w.t.end(s)
		s = w.t.begin(task, "dp.finish", "dp")
		res, err := eng.Finish()
		finish += w.t.end(s)
		w.t.end(task)
		if err != nil {
			return nil, nil, err
		}
		frontiers = append(frontiers, res.Plans)
		stats = append(stats, res.Stats)
	}
	w.sample("partition.for_partition_us", ji, us(forPart))
	w.sample("dp.new_engine_us", ji, us(newEng))
	w.sample("dp.run_ms", ji, ms(run)) // enumeration included; see dryPartition
	w.sample("dp.finish_us", ji, us(finish))
	if w.first {
		var total plan.Stats
		var maxWU uint64
		for _, st := range stats {
			total.Add(st)
			maxWU = max(maxWU, st.WorkUnits())
		}
		w.counts["partition.admissible_sets"] += float64(sets)
		w.counts["dp.work_units"] += float64(total.WorkUnits())
		w.counts["dp.sets_processed"] += float64(total.SetsProcessed)
		w.counts["dp.splits_tried"] += float64(total.SplitsTried)
		w.counts["dp.plans_kept"] += float64(total.PlansKept)
		w.counts["dp.plans_pruned"] += float64(total.PlansPruned)
		w.counts["dp.memo_entries_max"] = max(w.counts["dp.memo_entries_max"], float64(total.MemoEntries))
		w.counts["core.wu_sum"] += float64(total.WorkUnits())
		w.counts["core.wu_max"] += float64(maxWU)
		w.counts["core.wu_mean"] += float64(total.WorkUnits()) / float64(m)
		w.counts["core.wu_critical"] += max(float64(maxWU), float64(total.WorkUnits())/float64(min(nproc(), m)))
		if j.spec.Objective.HasFrontier() {
			for _, f := range frontiers {
				w.counts["mo.partition_plans"] += float64(len(f))
			}
		}
	}
	return frontiers, stats, nil
}

// finalPrune is the master's second phase; its plan must carry the
// fingerprint of the engine's own answer. For frontier jobs FinalPrune
// calls mo.Merge internally, so the walk times that call once more by
// itself, under "dry".
func (w *walker) finalPrune(parent, ji int, frontiers [][]*plan.Node) (*plan.Node, error) {
	j := &w.in.jobs[ji]
	s := w.t.begin(parent, "core.final_prune", "core")
	best, frontier, err := core.FinalPrune(j.spec, frontiers)
	w.sample("core.final_prune_us", ji, us(w.t.end(s)))
	if err != nil {
		return nil, err
	}
	fp := wire.PlanFingerprint(best)
	w.in.check(fp == j.fp, "%s: walk fingerprint %s, engine %s", j.name, fp, j.fp)
	if j.spec.Objective.HasFrontier() {
		dry := w.t.begin(parent, "dry", "trace")
		s = w.t.begin(dry, "mo.merge", "mo")
		mo.Merge(frontiers, j.spec.Alpha)
		w.sample("mo.merge_us", ji, us(w.t.end(s)))
		w.t.end(dry)
		if w.first {
			w.counts["mo.frontier_final"] += float64(len(frontier))
		}
	}
	return best, nil
}

// dryPartition times the partition layer without the DP: enumeration
// with an empty callback, and for bushy jobs the splitter over the same
// sets. dp.process_ms is the traced loop minus the dry enumeration.
func (w *walker) dryPartition(parent, ji int) error {
	j := &w.in.jobs[ji]
	css, err := constraintSets(j)
	if err != nil {
		return err
	}
	n := j.q.N()
	s := w.t.begin(parent, "partition.enumerate", "partition")
	for _, cs := range css {
		enum := cs.NewEnumerator()
		for k := 2; k <= n; k++ {
			enum.ForEachAdmissible(k, func(u bitset.Set) bool {
				w.sink ^= u
				return true
			})
		}
	}
	enumerate := w.t.end(s)
	w.sample("partition.enumerate_ms", ji, ms(enumerate))
	runs := w.samples["dp.run_ms"][ji]
	w.sample("dp.process_ms", ji, runs[len(runs)-1].v-ms(enumerate))
	if j.spec.Space != mpq.Bushy {
		return nil
	}
	var split time.Duration
	for _, cs := range css {
		var sets []bitset.Set
		for k := 2; k <= n; k++ {
			cs.ForEachAdmissible(k, func(u bitset.Set) bool {
				sets = append(sets, u)
				return true
			})
		}
		sp := cs.NewSplitter()
		s := w.t.begin(parent, "partition.split", "partition")
		for _, u := range sets {
			sp.ForEachLeft(u, func(left bitset.Set) { w.sink ^= left })
		}
		split += w.t.end(s)
	}
	w.sample("partition.split_ms", ji, ms(split))
	return nil
}

// countAllocs reruns the job's dynamic programs on the warm runtime
// with no span in between and counts heap allocations around them.
func (w *walker) countAllocs(ji int) error {
	j := &w.in.jobs[ji]
	css, err := constraintSets(j)
	if err != nil {
		return err
	}
	opts := j.spec.DPOptions()
	opts.Runtime = w.rt
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for _, cs := range css {
		eng, err := dp.NewEngine(j.q, cs, opts)
		if err != nil {
			return err
		}
		runPartition(eng, cs, j.q.N())
		if _, err := eng.Finish(); err != nil {
			return err
		}
	}
	runtime.ReadMemStats(&m1)
	w.sampleCount("dp.allocs_per_job", ji, float64(m1.Mallocs-m0.Mallocs))
	w.sampleCount("dp.alloc_kb_per_job", ji, float64(m1.TotalAlloc-m0.TotalAlloc)/1024)
	return nil
}

// backToBack times the serial engine and the measured engine on the
// same job, untraced, one right after the other: the measured speedup
// (and, against the in-process engine, what TCP adds).
func (w *walker) backToBack(ctx context.Context, ji int) error {
	j := &w.in.jobs[ji]
	timed := func(metric string, eng mpq.Engine) (*mpq.Answer, error) {
		t0 := time.Now()
		ans, err := eng.Optimize(ctx, j.q, j.spec)
		w.sample(metric, ji, ms(time.Since(t0)))
		return ans, err
	}
	ser, err := timed("serial_ms", w.serial)
	if err != nil {
		return err
	}
	if _, err := timed("engine_ms", w.in.callers[0]); err != nil {
		return err
	}
	if w.in.def.name == wlTCP {
		if _, err := timed("inproc_ms", w.inproc); err != nil {
			return err
		}
	}
	if w.first {
		w.counts["core.wu_serial"] += float64(ser.Stats.WorkUnits())
	}
	return nil
}

// replayTCP is one master-side exchange per partition with a live
// ListenWorker over the walk's own connection and the final prune;
// then, under "dry", the worker's side of the same exchanges called
// directly, and the DP walk of what the worker computed.
func (w *walker) replayTCP(ctx context.Context, root, ji int) error {
	j := &w.in.jobs[ji]
	s := w.t.begin(root, "netrun.dial", "netrun")
	var d net.Dialer
	conn, err := d.DialContext(ctx, "tcp", w.in.workerAddrs[0])
	w.t.end(s)
	if err != nil {
		return err
	}
	defer conn.Close()
	var encReq, decResp, trip time.Duration
	var reqBytes, respBytes int
	var frames [][]byte
	var frontiers [][]*plan.Node
	for part := 0; part < j.spec.Workers; part++ {
		ex := w.t.begin(root, "netrun.partition", "netrun")
		s := w.t.begin(ex, "wire.encode_request", "wire")
		frame := wire.EncodeJobRequest(&wire.JobRequest{Seq: uint32(part + 1), Spec: j.spec, PartID: part, Query: j.q})
		encReq += w.t.end(s)
		s = w.t.begin(ex, "netrun.worker_roundtrip", "netrun")
		err := wire.WriteFrame(conn, frame)
		var payload []byte
		if err == nil {
			payload, err = wire.ReadFrame(conn)
		}
		trip += w.t.end(s)
		if err != nil {
			return err
		}
		s = w.t.begin(ex, "wire.decode_response", "wire")
		resp, err := wire.DecodeJobResponse(payload)
		decResp += w.t.end(s)
		w.t.end(ex)
		if err != nil {
			return err
		}
		frames = append(frames, frame)
		frontiers = append(frontiers, resp.Plans)
		reqBytes += len(frame)
		respBytes += len(payload)
	}
	if _, err := w.finalPrune(root, ji, frontiers); err != nil {
		return err
	}
	w.sample("wire.encode_request_us", ji, us(encReq))
	w.sample("wire.decode_response_us", ji, us(decResp))
	w.sample("netrun.worker_roundtrip_ms", ji, ms(trip))
	if w.first {
		w.counts["wire.request_bytes"] += float64(reqBytes)
		w.counts["wire.response_bytes"] += float64(respBytes)
	}

	dry := w.t.begin(root, "dry", "trace")
	defer w.t.end(dry)
	var decReq, encResp, compute time.Duration
	for _, frame := range frames {
		s := w.t.begin(dry, "wire.decode_request", "wire")
		req, err := wire.DecodeJobRequest(frame)
		decReq += w.t.end(s)
		if err != nil {
			return err
		}
		s = w.t.begin(dry, "core.run_worker", "core")
		res, err := core.RunWorkerContext(ctx, req.Query, req.Spec, req.PartID)
		compute += w.t.end(s)
		if err != nil {
			return err
		}
		s = w.t.begin(dry, "wire.encode_response", "wire")
		wire.EncodeJobResponse(&wire.JobResponse{Seq: req.Seq, Plans: res.Plans, Stats: res.Stats})
		encResp += w.t.end(s)
	}
	w.sample("wire.decode_request_us", ji, us(decReq))
	w.sample("wire.encode_response_us", ji, us(encResp))
	w.sample("netrun.worker_overhead_us", ji, us(trip-compute))
	_, _, err = w.dpPath(dry, ji)
	return err
}

// replayServe walks the daemon's two paths as far as the harness can
// call them. The miss path, under "dry", is what the cache wraps around
// the in-process engine: the DP walk, then an insert that evicts under
// the 64 KiB budget; then probes of the live daemon. The hit path — the
// four wire conversions around a cache lookup — is the real path, since
// the median operation of this workload is a hit.
func (w *walker) replayServe(ctx context.Context, root, ji int) error {
	j := &w.in.jobs[ji]
	dry := w.t.begin(root, "dry", "trace")
	_, cached := w.cache.Lookup(j.q, j.spec)
	ans, err := w.replayDP(dry, ji)
	if err != nil {
		return err
	}
	if !cached { // a replacement would not evict: only a true miss is a sample
		s := w.t.begin(dry, "cache.miss_insert", "cache")
		w.cache.Insert(j.q, j.spec, ans)
		w.sample("cache.miss_insert_us", ji, us(w.t.end(s)))
	}
	s := w.t.begin(dry, "cache.key", "cache")
	w.cache.KeyOf(j.q, j.spec)
	w.sample("cache.key_us", ji, us(w.t.end(s)))
	if w.first {
		ser, err := w.serial.Optimize(ctx, j.q, j.spec)
		if err != nil {
			return err
		}
		w.counts["core.wu_serial"] += float64(ser.Stats.WorkUnits())
	}
	if err := w.daemonProbes(ctx, dry, ji); err != nil {
		return err
	}
	w.t.end(dry)

	s = w.t.begin(root, "wire.encode_request", "wire")
	frame := wire.EncodeJobRequest(&wire.JobRequest{Seq: 1, Spec: j.spec, Query: j.q})
	w.sample("wire.encode_request_us", ji, us(w.t.end(s)))
	s = w.t.begin(root, "wire.decode_request", "wire")
	req, err := wire.DecodeJobRequest(frame)
	w.sample("wire.decode_request_us", ji, us(w.t.end(s)))
	if err != nil {
		return err
	}
	s = w.t.begin(root, "cache.hit", "cache")
	hit, ok := w.cache.Lookup(req.Query, req.Spec)
	w.sample("cache.hit_us", ji, us(w.t.end(s)))
	if !ok {
		return fmt.Errorf("entry evicted between insert and lookup")
	}
	s = w.t.begin(root, "wire.encode_response", "wire")
	payload := wire.EncodeJobResponse(&wire.JobResponse{Seq: 1, Plans: []*plan.Node{hit.Best}, Stats: hit.Stats})
	w.sample("wire.encode_response_us", ji, us(w.t.end(s)))
	s = w.t.begin(root, "wire.decode_response", "wire")
	_, err = wire.DecodeJobResponse(payload)
	w.sample("wire.decode_response_us", ji, us(w.t.end(s)))
	if w.first {
		w.counts["wire.request_bytes"] += float64(len(frame))
		w.counts["wire.response_bytes"] += float64(len(payload))
	}
	return err
}

// daemonProbes times a guaranteed hit through the live daemon, over the
// wire client and over HTTP.
func (w *walker) daemonProbes(ctx context.Context, parent, ji int) error {
	j := &w.in.jobs[ji]
	client := w.in.callers[0]
	if _, err := client.Optimize(ctx, j.q, j.spec); err != nil { // now cached in the daemon
		return err
	}
	s := w.t.begin(parent, "server.wire_roundtrip", "server")
	got, err := client.Optimize(ctx, j.q, j.spec)
	w.sample("server.wire_roundtrip_us", ji, us(w.t.end(s)))
	if err != nil {
		return err
	}
	w.in.check(wire.PlanFingerprint(got.Best) == j.fp, "%s: daemon hit fingerprint differs from warm-up", j.name)
	return w.httpProbe(ctx, parent, ji)
}

// httpProbe times the same cached job through POST /v1/optimize.
func (w *walker) httpProbe(ctx context.Context, parent, ji int) error {
	j := &w.in.jobs[ji]
	body, err := json.Marshal(server.OptimizeRequest{
		Query: *spec.FromQuery(j.q), Space: "linear", Workers: j.spec.Workers,
	})
	if err != nil {
		return err
	}
	post := func() (*server.OptimizeResponse, error) {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, "http://"+w.in.srv.HTTPAddr()+"/v1/optimize", bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := w.httpc.Do(req)
		if err != nil {
			return nil, err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return nil, fmt.Errorf("POST /v1/optimize: %s", resp.Status)
		}
		var or server.OptimizeResponse
		return &or, json.NewDecoder(resp.Body).Decode(&or)
	}
	if _, err := post(); err != nil { // the HTTP spelling of the job has its own cache key
		return err
	}
	s := w.t.begin(parent, "server.http_roundtrip", "server")
	or, err := post()
	trip := w.t.end(s)
	if err != nil {
		return err
	}
	w.in.check(or.Cache != nil && or.Cache.Hit && or.Fingerprint == j.fp, "%s: HTTP probe was not a hit on the warm-up plan", j.name)
	w.sample("server.http_roundtrip_us", ji, us(trip))
	return nil
}

// replays is how many replays stand behind a walk metric: the fewest
// any job's median was taken over, or for a metric derived from others
// the passes made.
func (w *walker) replays(metric string) int {
	n := 0
	for _, reps := range w.samples[metric] {
		if len(reps) > 0 && (n == 0 || len(reps) < n) {
			n = len(reps)
		}
	}
	if n == 0 {
		return w.reps
	}
	return n
}

// medianOf is the median of the samples on clock c.
func medianOf(samples []sample, c clock) float64 {
	v := make([]float64, len(samples))
	for i, s := range samples {
		v[i] = c.of(s.v, s.slow)
	}
	return median(v)
}

// metrics folds samples and counters into the per-layer metrics, with
// times on clock clk.
func (w *walker) metrics(clk clock) map[string]float64 {
	out := map[string]float64{}
	for name, perJob := range w.samples {
		var sum float64
		var n int
		for _, reps := range perJob {
			if len(reps) > 0 {
				sum += medianOf(reps, clk)
				n++
			}
		}
		if n > 0 {
			out[name] = sum / float64(n)
		}
	}
	for name, v := range w.counts {
		out[name] = v
	}
	c := w.counts
	if kept, pruned := c["dp.plans_kept"], c["dp.plans_pruned"]; kept+pruned > 0 {
		out["dp.prune_keep_ratio"] = kept / (kept + pruned)
	}
	if wu := c["dp.work_units"]; wu > 0 {
		out["dp.ns_per_work_unit"] = out["dp.process_ms"] * 1e6 * float64(len(w.in.jobs)) / wu
	}
	if serial := c["core.wu_serial"]; serial > 0 {
		out["core.work_ratio"] = c["core.wu_sum"] / serial
		out["core.work_skew"] = c["core.wu_max"] / c["core.wu_mean"]
		out["core.predicted_speedup"] = serial / c["core.wu_critical"]
	}
	if e := out["engine_ms"]; e > 0 {
		out["core.measured_speedup"] = out["serial_ms"] / e
		out["core.parallel_efficiency"] = out["core.measured_speedup"] / out["core.predicted_speedup"]
		if ip, ok := out["inproc_ms"]; ok {
			out["netrun.tcp_minus_inproc_ms"] = e - ip
		}
	}
	if _, ok := out["server.wire_roundtrip_us"]; ok {
		out["server.overhead_us"] = out["server.wire_roundtrip_us"] - out["cache.hit_us"]
	}
	out["walk.path_ms"] = medianOf(w.path, clk)
	return out
}
