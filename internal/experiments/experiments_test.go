package experiments

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"
)

// figureScale skips t under -short: the guarded figure reproductions
// take tens of seconds each even at the tiny() scale. TestFig3 and
// TestFig4 (sub-second and ~1s) keep running as the short-mode smoke
// coverage of the experiment harness.
func figureScale(t *testing.T) {
	t.Helper()
	if testing.Short() {
		t.Skip("figure-scale experiment; run without -short")
	}
}

// tiny returns a configuration small enough for unit tests.
func tiny() Config {
	c := Quick()
	c.Queries = 3
	return c
}

// TestWorkloadsSweep checks the realistic-workload sweep: one row per
// join-graph shape (including Snowflake), a correlated-star row, and
// one row per built-in TPC-style schema, all with positive measurements
// — and the sweep must be deterministic for a fixed config.
func TestWorkloadsSweep(t *testing.T) {
	cfg := tiny()
	rows, err := Workloads(cfg)
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, r := range rows {
		names[r.Workload] = true
		if r.TimeMs <= 0 || r.Bytes <= 0 || r.Memo <= 0 || r.Workers < 1 {
			t.Fatalf("%s: non-positive measurement %+v", r.Workload, r)
		}
	}
	for _, want := range []string{"Star", "Chain", "Cycle", "Clique", "Snowflake", "Star(corr=0.8)", "tpch(sf=1)", "tpcds(sf=1)"} {
		if !names[want] {
			t.Errorf("sweep missing workload %q (have %v)", want, names)
		}
	}
	again, err := Workloads(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range rows {
		if rows[i] != again[i] {
			t.Fatalf("row %d not deterministic: %+v vs %+v", i, rows[i], again[i])
		}
	}
	table := WorkloadsTable(rows)
	if len(table.Rows) != len(rows) || len(table.Columns) != 7 {
		t.Fatalf("table shape wrong: %d rows, %d cols", len(table.Rows), len(table.Columns))
	}
}

func TestMedian(t *testing.T) {
	if median([]float64{3, 1, 2}) != 2 {
		t.Fatal("odd median")
	}
	if median([]float64{4, 1, 2, 3}) != 2.5 {
		t.Fatal("even median")
	}
	if !math.IsNaN(median(nil)) {
		t.Fatal("empty median")
	}
}

func TestMeanCI(t *testing.T) {
	mean, ci := meanCI([]float64{2, 2, 2, 2})
	if mean != 2 || ci != 0 {
		t.Fatalf("constant data: mean=%g ci=%g", mean, ci)
	}
	mean, ci = meanCI([]float64{1, 3})
	if mean != 2 || ci <= 0 {
		t.Fatalf("mean=%g ci=%g", mean, ci)
	}
	if m, _ := meanCI([]float64{5}); m != 5 {
		t.Fatal("single sample mean")
	}
}

func TestWorkerCounts(t *testing.T) {
	got := workerCounts(16, 128)
	want := []int{1, 2, 4, 8, 16}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v", got)
		}
	}
	if got := workerCounts(256, 8); got[len(got)-1] != 8 {
		t.Fatalf("cap not applied: %v", got)
	}
}

func TestTableRender(t *testing.T) {
	tbl := &Table{
		Title:   "T",
		Caption: "c",
		Columns: []string{"a", "bb"},
		Rows:    [][]string{{"1", "2"}, {"333", "4"}},
	}
	var buf bytes.Buffer
	tbl.Render(&buf)
	out := buf.String()
	if !strings.Contains(out, "T\n") || !strings.Contains(out, "333") {
		t.Fatalf("render output:\n%s", out)
	}
}

func TestFig1ShapesHold(t *testing.T) {
	figureScale(t)
	panels, err := Fig1(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(panels) != 4 {
		t.Fatalf("%d panels", len(panels))
	}
	for _, p := range panels {
		if len(p.MPQ.Points) == 0 || len(p.MPQ.Points) != len(p.SMA.Points) {
			t.Fatalf("panel %v-%d has mismatched series", p.Space, p.N)
		}
		// The paper's headline: MPQ sends at least an order of magnitude
		// less data than SMA at every degree of parallelism, and faster
		// optimization at the top parallelism.
		for i := range p.MPQ.Points {
			if 10*p.MPQ.Points[i].Bytes > p.SMA.Points[i].Bytes {
				t.Fatalf("panel %v-%d m=%d: MPQ bytes %g not an order below SMA bytes %g",
					p.Space, p.N, p.MPQ.Points[i].Workers, p.MPQ.Points[i].Bytes, p.SMA.Points[i].Bytes)
			}
		}
		last := len(p.MPQ.Points) - 1
		if p.MPQ.Points[last].TimeMs >= p.SMA.Points[last].TimeMs {
			t.Fatalf("panel %v-%d: MPQ not faster than SMA at max parallelism", p.Space, p.N)
		}
	}
	if tables := PanelTables(panels); len(tables) != 4 || len(tables[0].Rows) == 0 {
		t.Fatal("Fig1: PanelTables rendering")
	}
}

func TestFig2ShapesHold(t *testing.T) {
	figureScale(t)
	panels, err := Fig2(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(panels) != 4 {
		t.Fatalf("%d panels", len(panels))
	}
	for _, p := range panels {
		pts := p.MPQ.Points
		if len(pts) < 3 {
			t.Fatalf("panel %v-%d has %d points", p.Space, p.N, len(pts))
		}
		// W-Time and memory decrease monotonically with workers.
		for i := 1; i < len(pts); i++ {
			if pts[i].WTimeMs >= pts[i-1].WTimeMs {
				t.Fatalf("panel %v-%d: W-time not decreasing at m=%d", p.Space, p.N, pts[i].Workers)
			}
			if pts[i].MemoryRelations >= pts[i-1].MemoryRelations {
				t.Fatalf("panel %v-%d: memory not decreasing at m=%d", p.Space, p.N, pts[i].Workers)
			}
			if pts[i].Bytes <= pts[i-1].Bytes {
				t.Fatalf("panel %v-%d: network bytes not increasing at m=%d", p.Space, p.N, pts[i].Workers)
			}
		}
		// Large-enough search spaces: total time at max parallelism beats
		// one worker.
		if pts[len(pts)-1].TimeMs >= pts[0].TimeMs {
			t.Fatalf("panel %v-%d: no end-to-end speedup (%.2f -> %.2f ms)",
				p.Space, p.N, pts[0].TimeMs, pts[len(pts)-1].TimeMs)
		}
	}
	if tables := PanelTables(panels); len(tables) != 4 {
		t.Fatal("Fig2: PanelTables rendering")
	}
}

func TestFig3JoinGraphImpactNegligible(t *testing.T) {
	cfg := tiny()
	panels, err := Fig3(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(panels) != 3 {
		t.Fatalf("%d panels", len(panels))
	}
	for _, p := range panels {
		if len(p.Shapes) != 3 {
			t.Fatalf("panel %s-%d: %d shapes", p.Algo, p.N, len(p.Shapes))
		}
		// The DP treats the same number of sets regardless of the join
		// graph: times across shapes must agree within a small factor.
		for i := range p.Shapes[0].Points {
			lo, hi := math.Inf(1), 0.0
			for _, s := range p.Shapes {
				v := s.Points[i].TimeMs
				lo = math.Min(lo, v)
				hi = math.Max(hi, v)
			}
			if hi/lo > 1.25 {
				t.Fatalf("panel %s-%d: shape impact %.2fx at point %d", p.Algo, p.N, hi/lo, i)
			}
		}
	}
	if tables := Fig3Tables(panels); len(tables) != 3 {
		t.Fatal("Fig3Tables rendering")
	}
}

func TestFig4MPQBeatsSMA(t *testing.T) {
	panels, err := Fig4(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(panels) != 2 {
		t.Fatalf("%d panels", len(panels))
	}
	for _, p := range panels {
		if p.MedianFrontier < 1 {
			t.Fatalf("panel %v-%d: median frontier %g", p.Space, p.N, p.MedianFrontier)
		}
		for i := range p.MPQ.Points {
			if p.MPQ.Points[i].Bytes >= p.SMA.Points[i].Bytes {
				t.Fatalf("panel %v-%d: MO MPQ bytes not below SMA", p.Space, p.N)
			}
		}
	}
	if tables := PanelTables(panels); len(tables) != 2 {
		t.Fatal("Fig4: PanelTables rendering")
	}
}

func TestFig5ScalingSteady(t *testing.T) {
	figureScale(t)
	panels, err := Fig5(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(panels) != 2 {
		t.Fatalf("%d panels", len(panels))
	}
	for _, p := range panels {
		pts := p.MPQ.Points
		if len(pts) < 2 {
			t.Fatalf("panel %d: %d points", p.N, len(pts))
		}
		for i := 1; i < len(pts); i++ {
			if pts[i].WTimeMs >= pts[i-1].WTimeMs {
				t.Fatalf("panel %d: W-time not decreasing", p.N)
			}
		}
	}
	if tables := PanelTables(panels); len(tables) != 2 {
		t.Fatal("Fig5: PanelTables rendering")
	}
}

func TestTable1GradientHolds(t *testing.T) {
	figureScale(t)
	cfg := tiny()
	opts := DefaultTable1Options(false)
	res, err := Table1(cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != len(opts.Budgets) {
		t.Fatalf("%d budget rows", len(res.Cells))
	}
	for bi := range res.Cells {
		if len(res.Cells[bi]) != len(opts.Sizes) {
			t.Fatalf("budget %d: %d size rows", bi, len(res.Cells[bi]))
		}
		for si := range res.Cells[bi] {
			row := res.Cells[bi][si]
			// Coarser precision never needs more workers than finer.
			for ai := 1; ai < len(row); ai++ {
				if row[ai-1].Infinite || row[ai].Infinite {
					continue
				}
				if row[ai].MinWorkers > row[ai-1].MinWorkers {
					t.Fatalf("budget %d size %d: α=%g needs %d workers > α=%g's %d",
						bi, si, opts.Alphas[ai], row[ai].MinWorkers, opts.Alphas[ai-1], row[ai-1].MinWorkers)
				}
			}
		}
		// A larger budget never increases the required parallelism.
		if bi > 0 {
			for si := range res.Cells[bi] {
				for ai := range res.Cells[bi][si] {
					prev, cur := res.Cells[bi-1][si][ai], res.Cells[bi][si][ai]
					if prev.Infinite {
						continue
					}
					if cur.Infinite || cur.MinWorkers > prev.MinWorkers {
						t.Fatalf("budget grew but cell got worse: %v -> %v", prev, cur)
					}
				}
			}
		}
	}
	tbl := Table1Table(res)
	if len(tbl.Rows) != len(opts.Budgets)*len(opts.Sizes) {
		t.Fatal("Table1Table rendering")
	}
}

func TestTable1CellString(t *testing.T) {
	if (Table1Cell{Infinite: true}).String() != "inf" {
		t.Fatal("inf cell")
	}
	if (Table1Cell{MinWorkers: 8}).String() != "8" {
		t.Fatal("numeric cell")
	}
}

func TestSpeedupsPositive(t *testing.T) {
	figureScale(t)
	cfg := tiny()
	cfg.Queries = 2
	rows, err := Speedups(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		if !(r.Virtual > 1) {
			t.Fatalf("%v-%d m=%d: virtual speedup %.2f not > 1", r.Space, r.N, r.Workers, r.Virtual)
		}
	}
	tbl := SpeedupsTable(rows)
	if len(tbl.Rows) != 4 || len(tbl.Columns) != 5 {
		t.Fatalf("SpeedupsTable rendering: %d rows, %d cols", len(tbl.Rows), len(tbl.Columns))
	}
}

func TestProgressWriter(t *testing.T) {
	cfg := tiny()
	var buf bytes.Buffer
	cfg.Progress = &buf
	cfg.progressf("hello %d", 42)
	if buf.String() != "hello 42\n" {
		t.Fatalf("progress output %q", buf.String())
	}
}

func TestFmtFloat(t *testing.T) {
	cases := map[float64]string{
		0:       "0",
		1234567: "1.23e+06",
		12.345:  "12.35",
		0.001:   "0.001",
	}
	for v, want := range cases {
		if got := fmtFloat(v); got != want {
			t.Errorf("fmtFloat(%g) = %q want %q", v, got, want)
		}
	}
	if fmtFloat(math.NaN()) != "-" {
		t.Error("NaN")
	}
}

func TestQuickAndFullConfigs(t *testing.T) {
	q := Quick()
	if q.Full || q.Queries != 5 {
		t.Fatalf("Quick = %+v", q)
	}
	f := FullScale()
	if !f.Full || f.Queries != 20 {
		t.Fatalf("FullScale = %+v", f)
	}
}

func TestWriteJSON(t *testing.T) {
	tbl := &Table{
		Title:   "Figure X",
		Caption: "a caption",
		Columns: []string{"workers", "time"},
		Rows:    [][]string{{"1", "10.5"}, {"2", "6.1"}},
	}
	var buf bytes.Buffer
	if err := tbl.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var got struct {
		Title   string     `json:"title"`
		Caption string     `json:"caption"`
		Columns []string   `json:"columns"`
		Rows    [][]string `json:"rows"`
	}
	if err := json.Unmarshal(buf.Bytes(), &got); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, buf.String())
	}
	if got.Title != "Figure X" || got.Caption != "a caption" {
		t.Fatalf("round trip: %+v", got)
	}
	if len(got.Columns) != 2 || len(got.Rows) != 2 || got.Rows[1][1] != "6.1" {
		t.Fatalf("round trip: %+v", got)
	}
	// One object per line (JSON Lines): exactly one trailing newline.
	if strings.Count(buf.String(), "\n") != 1 {
		t.Fatalf("not a single JSON line:\n%s", buf.String())
	}
}
