package experiments

import (
	"fmt"

	"mpq/internal/core"
	"mpq/internal/partition"
	"mpq/internal/sma"
	"mpq/internal/workload"
)

// DefaultAlpha is the paper's default approximation factor for the
// multi-objective experiment series (§6.1).
const DefaultAlpha = 10

// Fig4Panel is one subplot of Figure 4: multi-objective MPQ vs SMA.
type Fig4Panel struct {
	Space partition.Space
	N     int
	MPQ   Series
	SMA   Series
	// MedianFrontier is the median number of Pareto plans MPQ returned
	// (the paper reports 21 for Linear-12 and 16 for Bushy-9).
	MedianFrontier float64
}

// Fig4 reproduces Figure 4: multi-objective (time + buffer) optimization
// with α-approximate pruning, MPQ vs SMA, on Linear-10 and Bushy-9.
func Fig4(cfg Config) ([]Fig4Panel, error) {
	type pn struct {
		space partition.Space
		n     int
	}
	panels := []pn{{partition.Linear, 10}, {partition.Bushy, 9}}
	var out []Fig4Panel
	for _, p := range panels {
		panel, err := fig4Panel(cfg, p.space, p.n)
		if err != nil {
			return nil, err
		}
		out = append(out, panel)
		cfg.progressf("fig4: %v-%d done", p.space, p.n)
	}
	return out, nil
}

func fig4Panel(cfg Config, space partition.Space, n int) (Fig4Panel, error) {
	panel := Fig4Panel{Space: space, N: n}
	qs, err := cfg.batch(n, workload.Star)
	if err != nil {
		return panel, err
	}
	cap := cfg.MaxWorkers
	if cap > 128 {
		cap = 128
	}
	var frontierSizes []float64
	for _, m := range workerCounts(partition.MaxWorkers(space, n), cap) {
		spec := core.JobSpec{
			Space: space, Workers: m,
			Objective: core.MultiObjective, Alpha: DefaultAlpha,
		}
		var mpqT, mpqB, smaT, smaB []float64
		for _, q := range qs {
			if err := cfg.canceled(); err != nil {
				return panel, err
			}
			mres, err := runMPQ(cfg, q, spec)
			if err != nil {
				return panel, err
			}
			mpqT = append(mpqT, ms(mres.Cluster.VirtualTime))
			mpqB = append(mpqB, float64(mres.Cluster.Bytes))
			frontierSizes = append(frontierSizes, float64(len(mres.Frontier)))
			sres, err := sma.Run(cfg.Model, q, spec)
			if err != nil {
				return panel, err
			}
			smaT = append(smaT, ms(sres.Cluster.VirtualTime))
			smaB = append(smaB, float64(sres.Cluster.Bytes))
		}
		panel.MPQ.Points = append(panel.MPQ.Points, Point{Workers: m, TimeMs: median(mpqT), Bytes: median(mpqB)})
		panel.SMA.Points = append(panel.SMA.Points, Point{Workers: m, TimeMs: median(smaT), Bytes: median(smaB)})
	}
	panel.MPQ.Label = fmt.Sprintf("MPQ %v-%d (MO)", space, n)
	panel.SMA.Label = fmt.Sprintf("SMA %v-%d (MO)", space, n)
	panel.MedianFrontier = median(frontierSizes)
	return panel, nil
}

// Fig4Tables renders the Figure 4 panels.
func Fig4Tables(panels []Fig4Panel) []*Table {
	var out []*Table
	for _, p := range panels {
		t := &Table{
			Title: fmt.Sprintf("Figure 4 — multi-objective, %v %d tables (α=%d, medians)", p.Space, p.N, DefaultAlpha),
			Caption: fmt.Sprintf("median Pareto frontier size: %s plans",
				fmtFloat(p.MedianFrontier)),
			Columns: []string{"workers", "MPQ time(ms)", "MPQ net(bytes)", "SMA time(ms)", "SMA net(bytes)"},
		}
		for i := range p.MPQ.Points {
			mp, sp := p.MPQ.Points[i], p.SMA.Points[i]
			t.Rows = append(t.Rows, []string{
				fmt.Sprintf("%d", mp.Workers),
				fmtFloat(mp.TimeMs), fmtFloat(mp.Bytes),
				fmtFloat(sp.TimeMs), fmtFloat(sp.Bytes),
			})
		}
		out = append(out, t)
	}
	return out
}
