package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"
)

func TestHighestPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{9, 50}, {99, 50}, {100, 90}, {140, 90}, {999, 90}, {1000, 99}, {10000, 99.9}} {
		if got := highestPercentile(c.n); got != c.want {
			t.Errorf("highestPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestPercentileAndQuartiles(t *testing.T) {
	ten := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got := percentile(ten, 50); got != 5 {
		t.Errorf("p50 = %v, want 5", got)
	}
	if got := percentile(ten, 90); got != 9 {
		t.Errorf("p90 = %v, want 9", got)
	}
	// Values of Python's statistics.quantiles(v, n=4).
	for _, c := range []struct {
		v      []float64
		q1, q3 float64
	}{
		{ten, 2.75, 8.25},
		{[]float64{3, 1, 2}, 1, 3},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{10, 12, 11, 15, 14}, 10.5, 14.5},
	} {
		if q1, q3 := quartiles(c.v); q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v, want %v, %v", c.v, q1, q3, c.q1, c.q3)
		}
	}
	if got := spread([]float64{10, 12, 11, 15, 14}); got != 4.0/12 {
		t.Errorf("spread = %v, want %v", got, 4.0/12)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, StartNs: 0, EndNs: 100, Layer: "trace"},
		{ID: 2, Parent: 1, StartNs: 10, EndNs: 40, Layer: "dp"},
		{ID: 3, Parent: 1, StartNs: 30, EndNs: 60, Layer: "dp"},    // overlaps span 2: counted once
		{ID: 4, Parent: 1, StartNs: 90, EndNs: 120, Layer: "wire"}, // clipped to its parent
		{ID: 5, Parent: 2, StartNs: 15, EndNs: 20, Layer: "partition"},
	}
	want := map[int]int64{1: 100 - 50 - 10, 2: 25, 3: 30, 4: 30, 5: 5}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
	byLayer := layerSelfMs(spans)
	if got, want := byLayer["dp"], 55e-6; got != want {
		t.Errorf("dp self = %v ms, want %v", got, want)
	}
}

func TestNames(t *testing.T) {
	valid := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := map[string]bool{}
	for _, md := range allMetrics() {
		if !valid.MatchString(md.name) || seen[md.name] {
			t.Errorf("metric name %q is invalid or used twice", md.name)
		}
		seen[md.name] = true
	}
	for _, w := range workloads {
		if !valid.MatchString(w.name) || seen[w.name] {
			t.Errorf("workload name %q is invalid or used twice", w.name)
		}
		seen[w.name] = true
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.name)
		}
	}
}

// TestBenchmarkJSON holds ../BENCHMARK.json and the registry to the
// same names, units, directions and bounds.
func TestBenchmarkJSON(t *testing.T) {
	type entry struct {
		Name, Unit, Better, Why string
		Bound                   float64
	}
	var file struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []entry  `json:"workloads"`
		EndToEnd   []entry  `json:"end_to_end"`
		PerLayer   []entry  `json:"per_layer"`
	}
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&file); err != nil {
		t.Fatal(err)
	}
	var wantW, wantE, wantL []entry
	for _, w := range workloads {
		wantW = append(wantW, entry{Name: w.name, Why: w.why})
	}
	for _, md := range allMetrics() {
		e := entry{Name: md.name, Unit: md.unit, Better: md.better}
		if md.contract == "end_to_end" {
			e.Bound = md.bound
			wantE = append(wantE, e)
		} else {
			wantL = append(wantL, e)
		}
	}
	same := func(list string, file, code []entry) {
		for i := 0; i < max(len(file), len(code)); i++ {
			var f, c entry
			if i < len(file) {
				f = file[i]
			}
			if i < len(code) {
				c = code[i]
			}
			if f != c {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, the registry %+v", list, i, f, c)
			}
		}
	}
	same("workloads", file.Workloads, wantW)
	same("end_to_end", file.EndToEnd, wantE)
	same("per_layer", file.PerLayer, wantL)
	if !reflect.DeepEqual(file.Paths, []string{"bench"}) || file.RunSeconds < 1 || file.RunSeconds > 60 {
		t.Errorf("paths %v, run_seconds %d", file.Paths, file.RunSeconds)
	}
}

func TestNormalizeArgs(t *testing.T) {
	for in, want := range map[string]string{
		"--workload x --seed 3 --seconds 20 --trace 1": "--workload x --seed 3 --seconds 20 -trace=1",
		"--trace 0 --seed 3":                           "-trace=0 --seed 3",
		"-seed 1 -trace":                               "-seed 1 -trace",
		"-trace -seed 1":                               "-trace -seed 1",
	} {
		if got := strings.Join(normalizeArgs(strings.Fields(in)), " "); got != want {
			t.Errorf("normalizeArgs(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestVerdicts(t *testing.T) {
	p50, _ := metricByName("plan_ms_p50")
	setup, _ := metricByName("setup_s")
	sets, _ := metricByName("partition.admissible_sets")
	steady := []float64{100, 101, 99}
	for _, c := range []struct {
		md   metricDef
		a, b metricValue
		want string
	}{
		{p50, metricValue{Value: 100, Slices: steady}, metricValue{Value: 105, Slices: steady}, "ok"},
		{p50, metricValue{Value: 100, Slices: steady}, metricValue{Value: 130, Slices: steady}, "REGRESSED"},
		{p50, metricValue{Value: 100, Slices: steady}, metricValue{Value: 70, Slices: steady}, "improved"},
		{p50, metricValue{Value: 100, Slices: []float64{70, 100, 130}}, metricValue{Value: 105, Slices: steady}, "unresolved"},
		{setup, metricValue{Value: 0.5}, metricValue{Value: 0.9}, "ok"}, // within the half second
		{setup, metricValue{Value: 2}, metricValue{Value: 3}, "REGRESSED"},
		{sets, metricValue{Value: 7}, metricValue{Value: 7}, "equal"},
		{sets, metricValue{Value: 7}, metricValue{Value: 8}, "DIFFERS"},
	} {
		if got := verdictFor(c.md, c.a, c.b); got != c.want {
			t.Errorf("%s %v → %v: %q, want %q", c.md.name, c.a.Value, c.b.Value, got, c.want)
		}
	}
}

// smokeSizes keeps every engine configuration valid (8 partitions need
// 9 bushy tables) while the whole run takes about a second.
var smokeSizes = sizes{linearN: 10, bushyN: 9, moN: 8, zipfN: 6, zipfDistinct: 32, oracleSeeds: 2}

func smokeConfig(t *testing.T, trace bool) config {
	cfg := config{
		seed: 7, reps: 1, slice: 200 * time.Millisecond, trace: trace, walkReps: 1,
		sz: smokeSizes, out: filepath.Join(t.TempDir(), "result.json"),
	}
	for i := range workloads {
		cfg.defs = append(cfg.defs, &workloads[i])
	}
	return cfg
}

// TestSmoke runs all four workloads and the trace walk at a small scale:
// every check passes, no goroutine outlives a workload, every contract
// metric is reported, exact metrics repeat, and it stays under 5 s.
func TestSmoke(t *testing.T) {
	cal, err := newCalibrator()
	if err != nil {
		t.Fatal(err)
	}
	defer cal.close()
	slow := cal.slowdown(0)
	start := time.Now()
	ctx := context.Background()
	plain, err := run(ctx, smokeConfig(t, false))
	if err != nil {
		t.Fatal(err)
	}
	cfg := smokeConfig(t, true)
	traced, err := run(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Like every time here, the limit is in reference seconds: the box
	// this runs on is at times half as fast as itself.
	slow = max(1, (slow+cal.slowdown(0))/2)
	if d := time.Since(start); d.Seconds()/slow > 5 && !raceEnabled {
		t.Errorf("smoke runs took %v at machine slowdown %.2f, want under 5 reference seconds", d, slow)
	}
	again, err := run(ctx, smokeConfig(t, true))
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		for _, r := range []*result{plain, traced} {
			wr := r.Workloads[w.name]
			if wr == nil || wr.Failed != 0 || wr.Attempted == 0 {
				t.Fatalf("%s: %+v", w.name, wr)
			}
			var line struct {
				Correct bool
				Metrics map[string]struct {
					Value *float64
					Unit  string
				}
			}
			if err := json.Unmarshal([]byte(r.contractLine(w.name, r.Trace)), &line); err != nil || !line.Correct {
				t.Fatalf("%s: contract line: %v", w.name, err)
			}
			for _, md := range allMetrics() {
				got, ok := line.Metrics[md.name]
				if want := (md.contract == "per_layer") == r.Trace; ok != want || (ok && (got.Value == nil || got.Unit != md.unit)) {
					t.Errorf("%s trace=%v: metric %s present=%v", w.name, r.Trace, md.name, ok)
				}
				if md.contract == "end_to_end" && !r.Trace && *got.Value <= 0 {
					t.Errorf("%s: %s = %v, must be positive", w.name, md.name, *got.Value)
				}
			}
		}
		for _, md := range endToEnd[:4] { // both clocks, and the record behind the correction
			if v := plain.Workloads[w.name].Metrics[md.name]; v.Wall <= 0 || len(v.WallSlices) != len(v.Slices) {
				t.Errorf("%s: %s has no wall-clock record: %+v", w.name, md.name, v)
			}
		}
		if sl := plain.Workloads[w.name].Slices; len(sl) != 1 || sl[0].WallS <= 0 || len(sl[0].Slowdowns) == 0 {
			t.Errorf("%s: slice record %+v", w.name, sl)
		}
		wr := traced.Workloads[w.name]
		if wr.WalkReplays < cfg.walkReps || wr.Metrics["dp.process_ms"].N < cfg.walkReps {
			t.Errorf("%s: %d walk replays, dp.process_ms n=%d, want at least %d", w.name, wr.WalkReplays, wr.Metrics["dp.process_ms"].N, cfg.walkReps)
		}
		if leaked := wr.Metrics["runtime.goroutines_end"].Value; leaked != 0 {
			t.Errorf("%s: %v goroutines outlived the workload", w.name, leaked)
		}
		for _, md := range allMetrics() {
			if md.exact && wr.Metrics[md.name].Value != again.Workloads[w.name].Metrics[md.name].Value {
				t.Errorf("%s: exact metric %s did not repeat: %v, then %v", w.name, md.name, wr.Metrics[md.name].Value, again.Workloads[w.name].Metrics[md.name].Value)
			}
			if _, ok := wr.Metrics[md.name]; md.contract == "per_layer" && md.appliesTo(w.name) && !ok {
				t.Errorf("%s: per-layer metric %s was not measured", w.name, md.name)
			}
		}
	}
	var spans []span
	b, err := os.ReadFile(filepath.Join(filepath.Dir(cfg.out), "trace.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, &spans); err != nil || len(spans) == 0 {
		t.Fatalf("trace.json: %d spans, %v", len(spans), err)
	}
	if err := writeJSON(cfg.out, traced); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if ok, err := compareFiles(&buf, cfg.out, cfg.out); err != nil || !ok {
		t.Errorf("a result compared with itself: ok=%v err=%v\n%s", ok, err, buf.String())
	}
}
