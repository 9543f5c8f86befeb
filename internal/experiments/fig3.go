package experiments

import (
	"fmt"

	"mpq/internal/core"
	"mpq/internal/partition"
	"mpq/internal/workload"
)

// Fig3Panel is one subplot of Figure 3: optimization time by join-graph
// shape (chain, star, cycle) for one algorithm and query size, with 95%
// confidence intervals over the query batch.
type Fig3Panel struct {
	Algo   string // "SMA" or "MPQ"
	N      int
	Shapes []Series // one series per join-graph shape
}

// Fig3 reproduces Figure 3: the impact of the join-graph structure on
// optimization time is negligible for both algorithms, because the
// dynamic program treats the same number of intermediate results
// regardless of the graph (cross products are allowed). The paper's
// panels are SMA-8, SMA-12, MPQ-12; the quick configuration shrinks the
// second SMA panel.
func Fig3(cfg Config) ([]Fig3Panel, error) {
	type pn struct {
		algo string
		n    int
	}
	panels := []pn{{"SMA", 8}}
	if cfg.Full {
		panels = append(panels, pn{"SMA", 12}, pn{"MPQ", 12})
	} else {
		panels = append(panels, pn{"SMA", 10}, pn{"MPQ", 12})
	}
	var out []Fig3Panel
	for _, p := range panels {
		panel, err := fig3Panel(cfg, p.algo, p.n)
		if err != nil {
			return nil, err
		}
		out = append(out, panel)
		cfg.progressf("fig3: %s-%d done", p.algo, p.n)
	}
	return out, nil
}

func fig3Panel(cfg Config, algo string, n int) (Fig3Panel, error) {
	panel := Fig3Panel{Algo: algo, N: n}
	shapes := []workload.Shape{workload.Chain, workload.Star, workload.Cycle}
	counts := []int{2, 16, 128}
	for _, shape := range shapes {
		qs, err := cfg.batch(n, shape)
		if err != nil {
			return panel, err
		}
		s := Series{Label: shape.String()}
		for _, m := range counts {
			if m > partition.MaxWorkers(partition.Linear, n) {
				continue
			}
			spec := core.JobSpec{Space: partition.Linear, Workers: m}
			sm, err := cfg.measure(qs, spec, algo == "SMA")
			if err != nil {
				return panel, err
			}
			mean, ci := meanCI(sm.time)
			s.Points = append(s.Points, Point{Workers: m, TimeMs: mean, CI95: ci})
		}
		panel.Shapes = append(panel.Shapes, s)
	}
	return panel, nil
}

// Fig3Tables renders the Figure 3 panels.
func Fig3Tables(panels []Fig3Panel) []*Table {
	var out []*Table
	for _, p := range panels {
		t := &Table{
			Title:   fmt.Sprintf("Figure 3 — %s, %d tables: join-graph impact (mean ± 95%% CI, ms)", p.Algo, p.N),
			Columns: []string{"workers"},
		}
		for _, s := range p.Shapes {
			t.Columns = append(t.Columns, s.Label)
		}
		if len(p.Shapes) == 0 || len(p.Shapes[0].Points) == 0 {
			out = append(out, t)
			continue
		}
		for i := range p.Shapes[0].Points {
			row := []string{fmt.Sprintf("%d", p.Shapes[0].Points[i].Workers)}
			for _, s := range p.Shapes {
				row = append(row, fmt.Sprintf("%s ± %s", fmtFloat(s.Points[i].TimeMs), fmtFloat(s.Points[i].CI95)))
			}
			t.Rows = append(t.Rows, row)
		}
		out = append(out, t)
	}
	return out
}
