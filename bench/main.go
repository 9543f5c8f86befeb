// Command bench is the repository's one benchmark: four named
// workloads driven closed-loop through the public entry points, eight
// end-to-end metrics, and a trace walk that attributes time to the
// layers. README.md defines every metric and records why each workload
// was chosen.
//
//	go run . -seed 1                  # all four workloads, end to end
//	go run . -seed 1 -trace           # per-layer metrics and out/trace.json
//	go run . -compare a.json b.json   # before/after against the bounds
//	go run . -update-golden           # re-pin testdata/golden.json
//
// BENCHMARK.json's driver runs one workload per process:
//
//	sh bench/run.sh --workload mpq8-large --seed 7 --seconds 20 --trace 0
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// setUps is how many times an untraced run sets its workload up;
// setup_s is their median. One set-up would do for the issue; the
// benchmark contract asks for several and their median, so that a
// single slow set-up does not read as a regression.
const setUps = 3

// driverSlices is how many slices a --seconds run is cut into, so that
// plans_per_s is a median over slices there too.
const driverSlices = 5

// keepReps is how many walk replays per job stay in out/trace.json.
const keepReps = 3

// The trace walk replays every distinct job at least minWalkReps times.
// A --seconds run has the driver's clock against it (20 replays of
// mpq8-large take about 90 s), so there the walk stops when its half of
// the seconds is spent, after at least driverWalkReps replays. Every
// walk metric is reported with the number of replays behind it.
const (
	minWalkReps    = 20
	driverWalkReps = 3
)

type config struct {
	seed     int64
	defs     []*workloadDef
	reps     int
	slice    time.Duration
	trace    bool
	walkReps int
	sz       sizes
	out      string // result file; the span file is written beside it
}

// result is the file a run writes and -compare reads.
type result struct {
	Machine   machine                    `json:"machine"`
	Seed      int64                      `json:"seed"`
	Reps      int                        `json:"reps"`
	SliceS    float64                    `json:"slice_s"`
	Trace     bool                       `json:"trace"`
	Workloads map[string]*workloadResult `json:"workloads"`
}

type workloadResult struct {
	Why       string                 `json:"why"`
	Callers   int                    `json:"callers"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Failures  []string               `json:"failures,omitempty"`
	Metrics   map[string]metricValue `json:"metrics"`
	// Slowdown is the machine's median slowdown during the timed
	// slices: measured time ≈ reported time × Slowdown. Slices has the
	// readings behind it.
	Slowdown float64       `json:"machine_slowdown"`
	Slices   []sliceRecord `json:"slices"`
	// WalkReplays is how often the trace walk replayed each job.
	WalkReplays int `json:"walk_replays,omitempty"`
	// LayerSelfMs is span self time by layer over the kept replays.
	LayerSelfMs map[string]float64 `json:"layer_self_ms,omitempty"`
}

// sliceRecord is the uncorrected record of one timed slice: what it
// measured on the wall clock, and the machine's slowdown in each of its
// one-second segments.
type sliceRecord struct {
	WallS     float64   `json:"wall_clock_s"`
	Ops       int       `json:"ops"`
	Slowdowns []float64 `json:"segment_slowdowns"`
}

// machine is the caption every result file carries: a number without
// it is not comparable with anything. RefComputeMs and RefPingMs are
// what a slowdown of 1 means (calib.go).
type machine struct {
	Cores        int     `json:"cores"`
	GOMAXPROCS   int     `json:"gomaxprocs"`
	Go           string  `json:"go"`
	Platform     string  `json:"platform"`
	CPU          string  `json:"cpu"`
	RefComputeMs float64 `json:"slowdown_1_compute_kernel_ms"`
	RefPingMs    float64 `json:"slowdown_1_ping_kernel_ms"`
}

func thisMachine() machine {
	m := machine{
		Cores: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go: runtime.Version(), Platform: runtime.GOOS + "/" + runtime.GOARCH, CPU: "unknown",
		RefComputeMs: refComputeMs, RefPingMs: refPingMs,
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				m.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return m
}

func (m machine) String() string {
	return fmt.Sprintf("%d cores (GOMAXPROCS %d), %s %s, %s; slowdown 1 = compute kernel %g ms, ping kernel %g ms",
		m.Cores, m.GOMAXPROCS, m.Go, m.Platform, m.CPU, m.RefComputeMs, m.RefPingMs)
}

// normalizeArgs lets -trace be both the plain switch of the full run
// and the "--trace 0|1" pair the driver passes.
func normalizeArgs(args []string) []string {
	var out []string
	for i := 0; i < len(args); i++ {
		if a := strings.TrimLeft(args[i], "-"); a == "trace" && args[i] != a && i+1 < len(args) && (args[i+1] == "0" || args[i+1] == "1") {
			out = append(out, "-trace="+args[i+1])
			i++
			continue
		}
		out = append(out, args[i])
	}
	return out
}

func main() {
	fs := flag.NewFlagSet("bench", flag.ExitOnError)
	seed := fs.Int64("seed", referenceSeed, "workload generation seed")
	name := fs.String("workload", "", "run only this workload (default: all four, interleaved)")
	seconds := fs.Int("seconds", 0, "measure each workload for this long, in 5 slices (overrides -reps and -slice)")
	reps := fs.Int("reps", 3, "timed slices per workload")
	slice := fs.Duration("slice", 10*time.Second, "length of one timed slice")
	trace := fs.Bool("trace", false, "walk each job through the layers: per-layer metrics and the span file")
	out := fs.String("o", "", "result file (default out/result.json, or out/result-trace.json with -trace)")
	compare := fs.Bool("compare", false, "compare two result files: bench -compare a.json b.json")
	update := fs.Bool("update-golden", false, "recompute testdata/golden.json for the reference seed")
	fs.Parse(normalizeArgs(os.Args[1:]))

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	switch {
	case *compare:
		if fs.NArg() != 2 {
			fatal(fmt.Errorf("usage: bench -compare a.json b.json"))
		}
		ok, err := compareFiles(os.Stdout, fs.Arg(0), fs.Arg(1))
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
		return
	case *update:
		if err := updateGolden(ctx); err != nil {
			fatal(err)
		}
		return
	}

	cfg := config{seed: *seed, reps: *reps, slice: *slice, trace: *trace, walkReps: minWalkReps, sz: refSizes, out: *out}
	if *seconds > 0 {
		cfg.reps, cfg.slice = driverSlices, time.Duration(*seconds)*time.Second/driverSlices
		cfg.walkReps = driverWalkReps
	}
	if cfg.out == "" {
		cfg.out = "out/result.json"
		if cfg.trace {
			cfg.out = "out/result-trace.json"
		}
	}
	for i := range workloads {
		if *name == "" || *name == workloads[i].name {
			cfg.defs = append(cfg.defs, &workloads[i])
		}
	}
	if len(cfg.defs) == 0 {
		fatal(fmt.Errorf("unknown workload %q", *name))
	}

	res, err := run(ctx, cfg)
	if err != nil {
		fatal(err)
	}
	res.print(os.Stdout)
	if err := writeJSON(cfg.out, res); err != nil {
		fatal(err)
	}
	if *name != "" { // the driver reads the last line
		fmt.Println(res.contractLine(*name, cfg.trace))
	}
	for _, wr := range res.Workloads {
		if wr.Failed > 0 && *name == "" {
			os.Exit(1)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

// run measures the configured workloads. Untraced, it sets every
// workload up, then interleaves their slices (A B C D A B C D …) so
// that machine drift hits all of them equally. Traced, it takes the
// workloads one at a time: a short untraced part for the numbers that
// come from answers and the runtime, then the walk.
func run(ctx context.Context, cfg config) (*result, error) {
	gold, err := loadGolden(cfg.seed, cfg.sz)
	if err != nil {
		return nil, err
	}
	cal, err := newCalibrator()
	if err != nil {
		return nil, err
	}
	defer cal.close()
	res := &result{
		Machine: thisMachine(), Seed: cfg.seed, Reps: cfg.reps, SliceS: cfg.slice.Seconds(),
		Trace: cfg.trace, Workloads: map[string]*workloadResult{},
	}
	if cfg.trace {
		t := newTracer()
		for _, def := range cfg.defs {
			wr, err := runTraced(ctx, cal, cfg, def, gold, t)
			if err != nil {
				return nil, err
			}
			res.Workloads[def.name] = wr
		}
		return res, writeJSON(filepath.Join(filepath.Dir(cfg.out), "trace.json"), t.spans)
	}
	var ms []*measurement
	for _, def := range cfg.defs {
		m, err := prepare(ctx, cal, def, cfg, gold, setUps)
		if err != nil {
			for _, prev := range ms {
				prev.in.close()
			}
			return nil, err
		}
		ms = append(ms, m)
	}
	for rep := 0; rep < cfg.reps; rep++ {
		for _, m := range ms {
			m.slice(ctx, cfg.slice)
		}
	}
	for _, m := range ms {
		if err := m.finish(); err != nil {
			return nil, err
		}
		res.Workloads[m.in.def.name] = m.result(nil, nil)
	}
	return res, ctx.Err()
}

// prepare sets the workload up n times, keeping the last instance and
// the check counts of all of them.
func prepare(ctx context.Context, cal *calibrator, def *workloadDef, cfg config, gold golden, n int) (*measurement, error) {
	var setups, setupsWc []float64
	var earlier checks
	for i := 0; ; i++ {
		in, err := setUp(ctx, cal, def, cfg.seed, cfg.sz, gold)
		if err != nil {
			return nil, err
		}
		setups = append(setups, in.setupS)
		setupsWc = append(setupsWc, in.setupWallS)
		earlier.add(in.checks)
		if i == n-1 {
			in.checks = earlier
			return newMeasurement(in, setups, setupsWc), nil
		}
		if err := in.close(); err != nil {
			return nil, err
		}
	}
}

// runTraced is one workload's traced run: two fifths of the time
// untraced, then the walk on the same instance.
func runTraced(ctx context.Context, cal *calibrator, cfg config, def *workloadDef, gold golden, t *tracer) (*workloadResult, error) {
	m, err := prepare(ctx, cal, def, cfg, gold, 1)
	if err != nil {
		return nil, err
	}
	total := time.Duration(cfg.reps) * cfg.slice
	for i := 0; i < 2; i++ {
		m.slice(ctx, total/5)
	}
	first := len(t.spans)
	w, err := walk(ctx, t, m.in, total/2, cfg.walkReps)
	if err != nil {
		return nil, errors.Join(err, m.in.close())
	}
	if err := m.finish(); err != nil {
		return nil, err
	}
	return m.result(w, t.spans[first:]), ctx.Err()
}

// result folds a finished measurement (and its walk, if any) into the
// reported metrics.
func (m *measurement) result(w *walker, spans []span) *workloadResult {
	in := m.in
	wr := &workloadResult{
		Why: in.def.why, Callers: len(in.callers),
		Attempted: in.attempted, Failed: in.failed, Failures: in.failures,
		Metrics: m.endToEndMetrics(), Slowdown: m.slowdown(),
	}
	for _, s := range m.slices {
		wr.Slices = append(wr.Slices, sliceRecord{WallS: s.wallS, Ops: len(s.ops), Slowdowns: s.slowdown})
	}
	if w == nil {
		return wr
	}
	wr.WalkReplays = w.reps
	walked := w.metrics(reference)
	layers := map[clock]map[string]float64{reference: walked, wallClock: w.metrics(wallClock)}
	if p50 := wr.Metrics["plan_ms_p50"].Value; p50 > 0 {
		walked["trace.walk_vs_e2e_ratio"] = walked["walk.path_ms"] / p50
	}
	replays := map[string]int{}
	for name := range walked {
		replays[name] = w.replays(name)
	}
	for c, l := range layers {
		for k, v := range m.answerMetrics(c) {
			l[k] = v
		}
	}
	for _, def := range perLayer {
		v, ok := walked[def.name]
		if !ok || !def.appliesTo(in.def.name) {
			continue
		}
		mv := metricValue{Value: v, Unit: def.unit}
		if !def.exact {
			mv.N = replays[def.name]
		}
		if def.isTime() {
			mv.Wall = layers[wallClock][def.name]
		}
		wr.Metrics[def.name] = mv
	}
	wr.LayerSelfMs = layerSelfMs(spans)
	return wr
}

// print writes every metric by name with its unit and sample count.
func (r *result) print(w *os.File) {
	fmt.Fprintf(w, "machine: %s\nseed %d, %d slices of %.3gs per workload, trace=%v\n", r.Machine, r.Seed, r.Reps, r.SliceS, r.Trace)
	for _, def := range workloads {
		wr, ok := r.Workloads[def.name]
		if !ok {
			continue
		}
		fmt.Fprintf(w, "\n== %s (%d closed-loop callers; times in reference time, then as measured; machine slowdown %.3g) ==\n", def.name, wr.Callers, wr.Slowdown)
		if wr.WalkReplays > 0 {
			fmt.Fprintf(w, "  trace walk: %d replays of each distinct job\n", wr.WalkReplays)
		}
		for _, md := range allMetrics() {
			v, ok := wr.Metrics[md.name]
			if !ok {
				continue
			}
			n := ""
			if v.N > 0 {
				n = fmt.Sprintf("n=%d", v.N)
			}
			var p float64
			if _, err := fmt.Sscanf(md.name, "plan_ms_p%g", &p); err == nil && p > highestPercentile(v.N) {
				n += " (fewer than 10 samples beyond it)"
			}
			wall := ""
			if md.isTime() {
				wall = fmt.Sprintf("%.6g", v.Wall)
			}
			fmt.Fprintf(w, "  %-34s %14.6g %14s %-6s %s\n", md.name, v.Value, wall, v.Unit, n)
		}
		if len(wr.LayerSelfMs) > 0 {
			var names []string
			for l := range wr.LayerSelfMs {
				names = append(names, l)
			}
			sort.Strings(names)
			fmt.Fprintf(w, "  span self time by layer, first %d replays of each job (ms):", keepReps)
			for _, l := range names {
				fmt.Fprintf(w, " %s=%.3g", l, wr.LayerSelfMs[l])
			}
			fmt.Fprintln(w)
		}
		fmt.Fprintf(w, "  checks: %d attempted, %d failed\n", wr.Attempted, wr.Failed)
		for _, f := range wr.Failures {
			fmt.Fprintf(w, "  FAILED: %s\n", f)
		}
	}
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// contractLine is the one-object summary BENCHMARK.json's driver reads:
// every end_to_end metric of the contract when untraced, every
// per_layer one when traced (0 where a metric is not defined on the
// workload), with all the digits measured.
func (r *result) contractLine(workload string, traced bool) string {
	wr := r.Workloads[workload]
	want := "end_to_end"
	if traced {
		want = "per_layer"
	}
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]mv{}
	for _, md := range allMetrics() {
		if md.contract == want {
			metrics[md.name] = mv{Value: wr.Metrics[md.name].Value, Unit: md.unit}
		}
	}
	b, _ := json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{wr.Failed == 0, wr.Attempted, wr.Failed, metrics})
	return string(b)
}
