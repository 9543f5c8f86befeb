package main

import (
	"context"
	"errors"
	"runtime"
	"sort"
	"sync"
	"time"

	"mpq"
	"mpq/internal/server"
)

// op is what the timed loop keeps of one operation; everything else
// about the answer is checked after the slice, outside the timing.
// Times are wall-clock ms; dividing by slow gives reference ms.
type op struct {
	job    int32
	failed bool
	cost   float64 // Best.Cost, compared with the reference afterwards
	slow   float64 // the machine's slowdown over the op's segment
	ms     float64 // caller-observed latency
	// From the answer's public fields (core layer); zero when the
	// engine does not report them (server.Client).
	workerMaxMs, workerSumMs, elapsedMs float64
}

// clock selects what a time is reported in: reference time (measured ÷
// the machine's slowdown around the measurement, see calib.go) or the
// wall-clock time as measured. Every timed metric is kept in both.
type clock bool

const (
	reference clock = false
	wallClock clock = true
)

// of converts a measured time.
func (c clock) of(measured, slow float64) float64 {
	if c == wallClock {
		return measured
	}
	return measured / slow
}

// slice is one timed interval of one workload, run as segments of about
// a second with the machine's slowdown measured between them.
type slice struct {
	wallS    float64   // wall-clock seconds the callers were running
	seconds  float64   // the same in reference seconds
	ops      []op      // all callers
	slowdown []float64 // the machine's, per segment
	rejected int       // refused by the daemon's admission queue
	net      mpq.NetStats
	netJobs  int
	mem0     runtime.MemStats
	mem1     runtime.MemStats
	errs     []string
}

// segment is how long callers run between two readings of the
// machine's slowdown: short against the tens of seconds over which it
// drifts. Where work comes in shorter pieces (set-ups at test scale,
// walk replays) a reading is reused for up to fresh.
const (
	segment = time.Second
	fresh   = segment / 4
)

// runSlice drives the workload closed-loop for d: each caller sends its
// next job when its previous reply arrives. last keeps one answer per
// caller and distinct job for the end-of-run Validate.
func (in *instance) runSlice(ctx context.Context, d time.Duration, last []*mpq.Answer) *slice {
	s := &slice{}
	runtime.GC() // start every slice from a collected heap
	runtime.ReadMemStats(&s.mem0)
	before := in.cal.slowdown(fresh)
	for ; d > 0 && ctx.Err() == nil; d -= segment {
		first := len(s.ops)
		wall := in.runSegment(ctx, min(d, segment), s, last)
		after := in.cal.slowdown(fresh)
		slow := (before + after) / 2
		before = after
		for i := first; i < len(s.ops); i++ {
			o := &s.ops[i]
			o.slow = slow
			o.ms /= 1e6 // the caller loop recorded ns
			o.workerMaxMs /= 1e6
			o.workerSumMs /= 1e6
			o.elapsedMs /= 1e6
		}
		s.wallS += wall.Seconds()
		s.seconds += wall.Seconds() / slow
		s.slowdown = append(s.slowdown, slow)
	}
	runtime.ReadMemStats(&s.mem1)
	return s
}

// runSegment runs every caller until the deadline and merges what they
// recorded into s. It returns the wall-clock time they ran.
func (in *instance) runSegment(ctx context.Context, d time.Duration, s *slice, last []*mpq.Answer) time.Duration {
	perCaller := make([]slice, len(in.callers))
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(d)
	for c := range in.callers {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			in.callerLoop(ctx, c, deadline, &perCaller[c], last)
		}(c)
	}
	wg.Wait()
	wall := time.Since(start)
	for c := range perCaller {
		pc := &perCaller[c]
		s.ops = append(s.ops, pc.ops...)
		s.rejected += pc.rejected
		s.netJobs += pc.netJobs
		addNet(&s.net, &pc.net)
		s.errs = append(s.errs, pc.errs...)
	}
	return wall
}

func (in *instance) callerLoop(ctx context.Context, c int, deadline time.Time, s *slice, last []*mpq.Answer) {
	eng := in.callers[c]
	for time.Now().Before(deadline) && ctx.Err() == nil {
		ji := in.next(c)
		j := &in.jobs[ji]
		t0 := time.Now()
		ans, err := eng.Optimize(ctx, j.q, j.spec)
		o := op{job: int32(ji), ms: float64(time.Since(t0))}
		if err != nil {
			o.failed = true
			if errors.Is(err, server.ErrOverloaded) {
				s.rejected++
			}
			if len(s.errs) < 4 {
				s.errs = append(s.errs, j.name+": "+err.Error())
			}
		} else {
			o.cost = ans.Best.Cost
			o.elapsedMs = float64(ans.Elapsed)
			o.workerMaxMs = float64(ans.MaxWorkerElapsed)
			for i := range ans.PerWorker {
				o.workerSumMs += float64(ans.PerWorker[i].Elapsed)
			}
			if ans.Net != nil {
				addNet(&s.net, ans.Net)
				s.netJobs++
			}
			last[c*len(in.jobs)+ji] = ans // one slot per caller: no sharing
		}
		s.ops = append(s.ops, o)
	}
}

func addNet(dst, src *mpq.NetStats) {
	dst.BytesSent += src.BytesSent
	dst.BytesReceived += src.BytesReceived
	dst.Messages += src.Messages
	dst.Dials += src.Dials
	dst.IgnoredFrames += src.IgnoredFrames
	dst.Redispatched += src.Redispatched
	dst.Speculations += src.Speculations
}

// measurement is everything one workload's untraced run produced.
type measurement struct {
	in       *instance
	slices   []*slice
	setups   []float64     // reference seconds, one per set-up performed
	setupsWc []float64     // the same set-ups in wall-clock seconds
	last     []*mpq.Answer // per caller and job: the latest answer, for the final Validate
	cache0   mpq.CacheTotals
	cache1   mpq.CacheTotals
	leaked   int
}

func newMeasurement(in *instance, setups, setupsWc []float64) *measurement {
	m := &measurement{in: in, setups: setups, setupsWc: setupsWc, last: make([]*mpq.Answer, len(in.callers)*len(in.jobs))}
	if in.cached != nil {
		m.cache0 = in.cached.CacheTotals()
	}
	return m
}

// slice runs one more timed slice of d.
func (m *measurement) slice(ctx context.Context, d time.Duration) {
	m.slices = append(m.slices, m.in.runSlice(ctx, d, m.last))
}

// slowdown is the machine's median slowdown over the timed segments.
func (m *measurement) slowdown() float64 {
	var all []float64
	for _, s := range m.slices {
		all = append(all, s.slowdown...)
	}
	return median(all)
}

// finish checks every operation and one answer per distinct job, then
// closes the workload. Nothing here is timed.
func (m *measurement) finish() error {
	in := m.in
	for _, s := range m.slices {
		for _, o := range s.ops {
			j := &in.jobs[o.job]
			in.check(!o.failed && sameCost(o.cost, j.refCost), "%s: op failed or cost %v differs from reference %v", j.name, o.cost, j.refCost)
		}
		for _, e := range s.errs {
			if len(in.failures) < 8 {
				in.failures = append(in.failures, e)
			}
		}
	}
	for i, ans := range m.last {
		if ans != nil {
			j := &in.jobs[i%len(in.jobs)]
			err := ans.Best.Validate(j.q, modelOf(j.spec))
			in.check(err == nil, "%s: final Validate: %v", j.name, err)
		}
	}
	if in.cached != nil {
		m.cache1 = in.cached.CacheTotals()
	}
	err := in.close()
	m.leaked = in.leakedGoroutines()
	return err
}

// latencies returns the sorted latencies in ms of the ops keep accepts.
func latencies(ops []op, keep func(op) bool, c clock) []float64 {
	var ms []float64
	for _, o := range ops {
		if !o.failed && keep(o) {
			ms = append(ms, c.of(o.ms, o.slow))
		}
	}
	sort.Float64s(ms)
	return ms
}

// metricValue is one reported number. A time carries both clocks: Value
// and Slices in reference time, which the bounds are judged on, Wall
// and WallSlices as measured, so that a claim can be audited against
// real time. Slices are the per-slice values, which -compare uses as
// the run's own spread.
type metricValue struct {
	Value      float64   `json:"value"`
	Unit       string    `json:"unit"`
	N          int       `json:"n,omitempty"`
	Slices     []float64 `json:"slices,omitempty"`
	Wall       float64   `json:"wall_clock,omitempty"`
	WallSlices []float64 `json:"wall_clock_slices,omitempty"`
}

// endToEndMetrics computes the eight end-to-end metrics. Latencies
// pool over the slices; plans_per_s is the median over slices.
func (m *measurement) endToEndMetrics() map[string]metricValue {
	in := m.in
	out := map[string]metricValue{}
	put := func(name string, v metricValue) {
		def, _ := metricByName(name)
		if def.appliesTo(in.def.name) {
			v.Unit = def.unit
			out[name] = v
		}
	}
	all := func(op) bool { return true }
	class := func(c string) func(op) bool {
		return func(o op) bool { return in.jobs[o.job].class == c }
	}
	var pooled []op
	var rates, ratesWc []float64
	for _, s := range m.slices {
		pooled = append(pooled, s.ops...)
		rates = append(rates, float64(len(s.ops))/s.seconds)
		ratesWc = append(ratesWc, float64(len(s.ops))/s.wallS)
	}
	put("setup_s", metricValue{Value: median(m.setups), N: len(m.setups), Slices: m.setups, Wall: median(m.setupsWc), WallSlices: m.setupsWc})
	put("plans_per_s", metricValue{Value: median(rates), N: len(pooled), Slices: rates, Wall: median(ratesWc), WallSlices: ratesWc})
	lat := func(name string, p float64, keep func(op) bool) {
		per := map[clock][]float64{}
		for _, c := range []clock{reference, wallClock} {
			for _, s := range m.slices {
				per[c] = append(per[c], percentile(latencies(s.ops, keep, c), p))
			}
		}
		ms := latencies(pooled, keep, reference)
		put(name, metricValue{
			Value: percentile(ms, p), N: len(ms), Slices: per[reference],
			Wall: percentile(latencies(pooled, keep, wallClock), p), WallSlices: per[wallClock],
		})
	}
	lat("plan_ms_p50", 50, all)
	lat("plan_ms_p90", 90, all)
	lat("plan_ms_p99", 99, all)
	lat("linear_ms_p50", 50, class("linear"))
	lat("bushy_ms_p50", 50, class("bushy"))
	put("failed_share", metricValue{Value: float64(in.failed) / float64(max(in.attempted, 1)), N: in.attempted})
	return out
}

// answerMetrics are the per-layer numbers the untraced run yields by
// itself: public Answer and CacheTotals fields, and runtime.MemStats
// read at the slice boundaries.
func (m *measurement) answerMetrics(c clock) map[string]float64 {
	out := map[string]float64{}
	var wmax, wsum, glue []float64
	var net mpq.NetStats
	var ops, netJobs, rejected int
	var gc uint32
	var pauseNs, allocBytes, heapPeak uint64
	for _, s := range m.slices {
		for _, o := range s.ops {
			if o.failed || o.workerMaxMs == 0 {
				continue
			}
			wmax = append(wmax, c.of(o.workerMaxMs, o.slow))
			wsum = append(wsum, c.of(o.workerSumMs, o.slow))
			glue = append(glue, c.of(o.elapsedMs-o.workerMaxMs, o.slow))
		}
		ops += len(s.ops)
		addNet(&net, &s.net)
		netJobs += s.netJobs
		rejected += s.rejected
		gc += s.mem1.NumGC - s.mem0.NumGC
		pauseNs += s.mem1.PauseTotalNs - s.mem0.PauseTotalNs
		allocBytes += s.mem1.TotalAlloc - s.mem0.TotalAlloc
		heapPeak = max(heapPeak, s.mem0.HeapInuse, s.mem1.HeapInuse)
	}
	out["core.worker_ms_max"] = median(wmax)
	out["core.worker_ms_sum"] = median(wsum)
	out["core.elapsed_minus_max_worker_ms"] = median(glue)
	if netJobs > 0 {
		n := float64(netJobs)
		out["netrun.bytes_sent_per_job"] = float64(net.BytesSent) / n
		out["netrun.bytes_received_per_job"] = float64(net.BytesReceived) / n
		out["netrun.messages_per_job"] = float64(net.Messages) / n
		out["netrun.dials_per_job"] = float64(net.Dials) / n
		out["netrun.redispatched"] = float64(net.Redispatched)
		out["netrun.speculations"] = float64(net.Speculations)
		out["netrun.ignored_frames"] = float64(net.IgnoredFrames)
	}
	if m.in.cached != nil {
		d := m.cache1
		hits, misses, collapses := d.Hits-m.cache0.Hits, d.Misses-m.cache0.Misses, d.Collapses-m.cache0.Collapses
		if served := hits + misses + collapses; served > 0 {
			out["cache.hit_ratio"] = float64(hits) / float64(served)
			out["cache.evictions_per_1k"] = 1000 * float64(d.Evictions-m.cache0.Evictions) / float64(served)
		}
		out["cache.collapses"] = float64(collapses)
		out["cache.collisions"] = float64(d.Collisions - m.cache0.Collisions)
		out["cache.bytes"] = float64(d.Bytes)
		out["server.rejected"] = float64(rejected)
	}
	out["runtime.gc_cycles"] = float64(gc)
	out["runtime.gc_pause_ms"] = float64(pauseNs) / 1e6
	out["runtime.heap_inuse_peak_mb"] = float64(heapPeak) / (1 << 20)
	if ops > 0 {
		out["runtime.alloc_mb_per_1k_plans"] = float64(allocBytes) / (1 << 20) * 1000 / float64(ops)
	}
	out["runtime.goroutines_end"] = float64(m.leaked)
	out["runtime.machine_slowdown"] = m.slowdown()
	return out
}
