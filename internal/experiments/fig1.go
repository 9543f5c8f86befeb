package experiments

import (
	"fmt"

	"mpq/internal/core"
	"mpq/internal/partition"
	"mpq/internal/sma"
	"mpq/internal/workload"
)

// Fig1Panel is one subplot of Figure 1: MPQ vs SMA over worker counts,
// for one plan space and query size, single-objective.
type Fig1Panel struct {
	Space partition.Space
	N     int
	MPQ   Series
	SMA   Series
}

// Fig1 reproduces Figure 1: optimization time and network traffic for
// MPQ and SMA, single cost metric, over increasing worker counts.
// The paper's panels are Linear-8, Linear-16, Bushy-9, Bushy-15; the
// quick configuration substitutes smaller second panels.
func Fig1(cfg Config) ([]Fig1Panel, error) {
	type pn struct {
		space partition.Space
		n     int
	}
	panels := []pn{{partition.Linear, 8}, {partition.Bushy, 9}}
	if cfg.Full {
		panels = append(panels, pn{partition.Linear, 16}, pn{partition.Bushy, 15})
	} else {
		panels = append(panels, pn{partition.Linear, 10}, pn{partition.Bushy, 12})
	}
	var out []Fig1Panel
	for _, p := range panels {
		panel, err := fig1Panel(cfg, p.space, p.n)
		if err != nil {
			return nil, err
		}
		out = append(out, panel)
		cfg.progressf("fig1: %v-%d done", p.space, p.n)
	}
	return out, nil
}

func fig1Panel(cfg Config, space partition.Space, n int) (Fig1Panel, error) {
	panel := Fig1Panel{Space: space, N: n}
	qs, err := cfg.batch(n, workload.Star)
	if err != nil {
		return panel, err
	}
	cap := cfg.MaxWorkers
	if cap > 128 {
		cap = 128 // Figure 1 stops at 128
	}
	for _, m := range workerCounts(partition.MaxWorkers(space, n), cap) {
		spec := core.JobSpec{Space: space, Workers: m}
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
	panel.MPQ.Label = fmt.Sprintf("MPQ %v-%d", space, n)
	panel.SMA.Label = fmt.Sprintf("SMA %v-%d", space, n)
	return panel, nil
}

// Tables renders the Figure 1 panels.
func Fig1Tables(panels []Fig1Panel) []*Table {
	var out []*Table
	for _, p := range panels {
		t := &Table{
			Title:   fmt.Sprintf("Figure 1 — %v %d tables (single objective, star queries, medians)", p.Space, p.N),
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
