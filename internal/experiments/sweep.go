package experiments

import (
	"fmt"
	"strconv"

	"mpq/internal/cluster"
	"mpq/internal/core"
	"mpq/internal/partition"
	"mpq/internal/query"
	"mpq/internal/sma"
	"mpq/internal/workload"
)

// DefaultAlpha is the paper's default approximation factor for the
// multi-objective experiment series (§6.1).
const DefaultAlpha = 10

// runMPQ simulates one MPQ job on the default cluster, honoring the
// experiment's cancellation context.
func runMPQ(cfg Config, q *query.Query, spec core.JobSpec) (*core.Answer, error) {
	return cluster.Run(cfg.context(), cluster.Default(), q, spec, cluster.Faults{})
}

// samples holds one data point's raw measurements, one value per query.
type samples struct {
	time, wtime, bytes, memo, frontier []float64
}

// measure is the inner loop of every simulated sweep: it runs each query
// of the batch under spec — MPQ, or the SMA baseline — and collects the
// cluster record of every run.
func (c Config) measure(qs []*query.Query, spec core.JobSpec, baseline bool) (samples, error) {
	var s samples
	for _, q := range qs {
		if err := c.canceled(); err != nil {
			return s, err
		}
		var ans *core.Answer
		var err error
		if baseline {
			ans, err = sma.Run(c.context(), cluster.Default(), q, spec)
		} else {
			ans, err = runMPQ(c, q, spec)
		}
		if err != nil {
			return s, err
		}
		s.time = append(s.time, ms(ans.Cluster.VirtualTime))
		s.wtime = append(s.wtime, ms(ans.MaxWorkerElapsed))
		s.bytes = append(s.bytes, float64(ans.Cluster.Bytes))
		s.memo = append(s.memo, float64(ans.Stats.MemoEntries))
		s.frontier = append(s.frontier, float64(len(ans.Frontier)))
	}
	return s, nil
}

// medians reduces the samples to the data point the figures plot.
func (s samples) medians(workers int) Point {
	return Point{
		Workers: workers, TimeMs: median(s.time), WTimeMs: median(s.wtime),
		Bytes: median(s.bytes), MemoryRelations: median(s.memo),
	}
}

// Panel is one subplot of Figures 1, 2, 4 and 5: MPQ on star queries of
// one plan space and size over increasing worker counts.
type Panel struct {
	Title string
	Space partition.Space
	N     int
	MPQ   Series
	// SMA is the baseline's curve in the comparison figures (1 and 4);
	// the scaling figures (2 and 5) leave it empty.
	SMA Series
	// MedianFrontier is the median number of Pareto plans MPQ returned,
	// which the paper reports for Figure 4 (21 for Linear-12, 16 for
	// Bushy-9); zero elsewhere.
	MedianFrontier float64
}

// panelSize is a panel's plan space and table count.
type panelSize struct {
	space partition.Space
	n     int
}

// figure is one of Figures 1, 2, 4 and 5 as data.
type figure struct {
	name  string
	title string // format over (plan space, tables)
	// baseline adds the SMA curve; frontier reports the Pareto frontier
	// size; alpha > 0 makes the jobs multi-objective with that precision.
	baseline, frontier bool
	alpha              float64
	// Worker counts run from the scale's minimum up to maxWorkers.
	maxWorkers            int
	quickMin, fullMin     int
	quickSizes, fullSizes []panelSize
}

var moNote = " tables (α=" + strconv.Itoa(DefaultAlpha) + ", medians)"

var (
	// Figure 1: optimization time and network traffic for MPQ and SMA,
	// single cost metric. The paper's panels are Linear-8, Linear-16,
	// Bushy-9, Bushy-15; the quick configuration substitutes smaller
	// second panels.
	fig1 = figure{
		name: "fig1", title: "Figure 1 — %v %d tables (single objective, star queries, medians)",
		baseline: true, maxWorkers: 128,
		quickSizes: []panelSize{{partition.Linear, 8}, {partition.Bushy, 9}, {partition.Linear, 10}, {partition.Bushy, 12}},
		fullSizes:  []panelSize{{partition.Linear, 8}, {partition.Bushy, 9}, {partition.Linear, 16}, {partition.Bushy, 15}},
	}
	// Figure 2: MPQ scaling (total time, max worker time, peak worker
	// memory, traffic) on search spaces large enough to justify
	// parallelization.
	fig2 = figure{
		name: "fig2", title: "Figure 2 — MPQ scaling, %v %d tables (single objective, medians)",
		maxWorkers: 128,
		quickSizes: []panelSize{{partition.Linear, 14}, {partition.Linear, 16}, {partition.Bushy, 10}, {partition.Bushy, 12}},
		fullSizes:  []panelSize{{partition.Linear, 20}, {partition.Linear, 24}, {partition.Bushy, 15}, {partition.Bushy, 18}},
	}
	// Figure 4: multi-objective (time + buffer) optimization with
	// α-approximate pruning, MPQ vs SMA.
	fig4 = figure{
		name: "fig4", title: "Figure 4 — multi-objective, %v %d" + moNote,
		baseline: true, frontier: true, alpha: DefaultAlpha, maxWorkers: 128,
		quickSizes: []panelSize{{partition.Linear, 10}, {partition.Bushy, 9}},
		fullSizes:  []panelSize{{partition.Linear, 10}, {partition.Bushy, 9}},
	}
	// Figure 5: multi-objective MPQ on linear spaces large enough to
	// exploit up to 256 workers. The quick panels stop at 128, the most
	// Linear-14 partitions into.
	fig5 = figure{
		name: "fig5", title: "Figure 5 — multi-objective MPQ scaling, %v %d" + moNote,
		alpha: DefaultAlpha, maxWorkers: 256, quickMin: 4, fullMin: 16,
		quickSizes: []panelSize{{partition.Linear, 12}, {partition.Linear, 14}},
		fullSizes:  []panelSize{{partition.Linear, 16}, {partition.Linear, 18}, {partition.Linear, 20}},
	}
)

// Fig1 reproduces Figure 1 (MPQ vs SMA, single objective).
func Fig1(cfg Config) ([]Panel, error) { return fig1.run(cfg) }

// Fig2 reproduces Figure 2 (MPQ scaling, single objective).
func Fig2(cfg Config) ([]Panel, error) { return fig2.run(cfg) }

// Fig4 reproduces Figure 4 (MPQ vs SMA, multi-objective).
func Fig4(cfg Config) ([]Panel, error) { return fig4.run(cfg) }

// Fig5 reproduces Figure 5 (MPQ scaling to 256 workers, multi-objective).
func Fig5(cfg Config) ([]Panel, error) { return fig5.run(cfg) }

// run measures every panel of the figure at cfg's scale.
func (f figure) run(cfg Config) ([]Panel, error) {
	sizes, minWorkers := f.quickSizes, f.quickMin
	if cfg.Full {
		sizes, minWorkers = f.fullSizes, f.fullMin
	}
	var out []Panel
	for _, size := range sizes {
		p := Panel{Title: fmt.Sprintf(f.title, size.space, size.n), Space: size.space, N: size.n}
		p.MPQ.Label = fmt.Sprintf("MPQ %v-%d", size.space, size.n)
		p.SMA.Label = fmt.Sprintf("SMA %v-%d", size.space, size.n)
		qs, err := cfg.batch(size.n, workload.Star)
		if err != nil {
			return nil, err
		}
		var frontier []float64
		for _, m := range workerCounts(partition.MaxWorkers(size.space, size.n), f.maxWorkers) {
			if m < minWorkers {
				continue
			}
			spec := core.JobSpec{Space: size.space, Workers: m}
			if f.alpha > 0 {
				spec.Objective, spec.Alpha = core.MultiObjective, f.alpha
			}
			s, err := cfg.measure(qs, spec, false)
			if err != nil {
				return nil, err
			}
			p.MPQ.Points = append(p.MPQ.Points, s.medians(m))
			frontier = append(frontier, s.frontier...)
			if f.baseline {
				if s, err = cfg.measure(qs, spec, true); err != nil {
					return nil, err
				}
				p.SMA.Points = append(p.SMA.Points, s.medians(m))
			}
		}
		if f.frontier {
			p.MedianFrontier = median(frontier)
		}
		out = append(out, p)
		cfg.progressf("%s: %v-%d done", f.name, size.space, size.n)
	}
	return out, nil
}

// PanelTables renders panels: MPQ beside SMA where the baseline was
// measured, MPQ's scaling metrics otherwise.
func PanelTables(panels []Panel) []*Table {
	var out []*Table
	for _, p := range panels {
		t := &Table{Title: p.Title}
		if p.MedianFrontier > 0 {
			t.Caption = fmt.Sprintf("median Pareto frontier size: %s plans", fmtFloat(p.MedianFrontier))
		}
		compare := len(p.SMA.Points) > 0
		if compare {
			t.Columns = []string{"workers", "MPQ time(ms)", "MPQ net(bytes)", "SMA time(ms)", "SMA net(bytes)"}
		} else {
			t.Columns = []string{"workers", "time(ms)", "w-time(ms)", "memory(relations)", "net(bytes)"}
		}
		for i, mp := range p.MPQ.Points {
			row := []string{strconv.Itoa(mp.Workers), fmtFloat(mp.TimeMs)}
			if compare {
				row = append(row, fmtFloat(mp.Bytes), fmtFloat(p.SMA.Points[i].TimeMs), fmtFloat(p.SMA.Points[i].Bytes))
			} else {
				row = append(row, fmtFloat(mp.WTimeMs), fmtFloat(mp.MemoryRelations), fmtFloat(mp.Bytes))
			}
			t.Rows = append(t.Rows, row)
		}
		out = append(out, t)
	}
	return out
}
