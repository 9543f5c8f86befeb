package experiments

import (
	"fmt"

	"mpq/internal/core"
	"mpq/internal/partition"
	"mpq/internal/workload"
)

// Fig5Panel is one curve of Figure 5: multi-objective MPQ scaling to 256
// workers on large linear plan spaces.
type Fig5Panel struct {
	N      int
	Points []Point
}

// Fig5 reproduces Figure 5: multi-objective MPQ (α=10) on queries large
// enough to exploit up to 256 workers. Paper sizes: Linear 16, 18, 20;
// quick configuration: Linear 12, 14.
func Fig5(cfg Config) ([]Fig5Panel, error) {
	sizes := []int{12, 14}
	minWorkers := 4
	if cfg.Full {
		sizes = []int{16, 18, 20}
		minWorkers = 16
	}
	var out []Fig5Panel
	for _, n := range sizes {
		panel, err := fig5Panel(cfg, n, minWorkers)
		if err != nil {
			return nil, err
		}
		out = append(out, panel)
		cfg.progressf("fig5: Linear-%d done", n)
	}
	return out, nil
}

func fig5Panel(cfg Config, n, minWorkers int) (Fig5Panel, error) {
	panel := Fig5Panel{N: n}
	qs, err := cfg.batch(n, workload.Star)
	if err != nil {
		return panel, err
	}
	cap := cfg.MaxWorkers
	if cap > 256 {
		cap = 256 // Figure 5 scales to 256
	}
	for _, m := range workerCounts(partition.MaxWorkers(partition.Linear, n), cap) {
		if m < minWorkers {
			continue
		}
		spec := core.JobSpec{
			Space: partition.Linear, Workers: m,
			Objective: core.MultiObjective, Alpha: DefaultAlpha,
		}
		var t, wt, mem, bytes []float64
		for _, q := range qs {
			res, err := runMPQ(cfg, q, spec)
			if err != nil {
				return panel, err
			}
			t = append(t, ms(res.Cluster.VirtualTime))
			wt = append(wt, ms(res.Cluster.MaxWorkerTime))
			mem = append(mem, float64(res.Cluster.MaxMemoEntries))
			bytes = append(bytes, float64(res.Cluster.Bytes))
		}
		panel.Points = append(panel.Points, Point{
			Workers: m, TimeMs: median(t), WTimeMs: median(wt),
			MemoryRelations: median(mem), Bytes: median(bytes),
		})
	}
	return panel, nil
}

// Fig5Tables renders the Figure 5 panels.
func Fig5Tables(panels []Fig5Panel) []*Table {
	var out []*Table
	for _, p := range panels {
		t := &Table{
			Title:   fmt.Sprintf("Figure 5 — multi-objective MPQ scaling, Linear %d tables (α=%d, medians)", p.N, DefaultAlpha),
			Columns: []string{"workers", "time(ms)", "w-time(ms)", "memory(relations)", "net(bytes)"},
		}
		for _, pt := range p.Points {
			t.Rows = append(t.Rows, []string{
				fmt.Sprintf("%d", pt.Workers),
				fmtFloat(pt.TimeMs), fmtFloat(pt.WTimeMs),
				fmtFloat(pt.MemoryRelations), fmtFloat(pt.Bytes),
			})
		}
		out = append(out, t)
	}
	return out
}
