package experiments

import (
	"fmt"
	"time"

	"mpq/internal/cluster"
	"mpq/internal/core"
	"mpq/internal/partition"
	"mpq/internal/workload"
)

// SpeedupRow is one measured speedup: parallel optimization (including
// master computation and communication overheads) versus the classical
// serial algorithm on one worker (excluding those overheads), computed
// the way §6.2 defines it.
type SpeedupRow struct {
	Space     partition.Space
	N         int
	Workers   int
	Objective core.Objective
	// Virtual is the speedup in simulated-cluster time.
	Virtual float64
}

// Speedups reproduces the speedup numbers quoted in §6.2 (e.g. 8.1x for
// Linear-24 at 128 workers, 9.4x for multi-objective Linear-20). Full
// scale uses the paper's sizes; quick scale shrinks them.
func Speedups(cfg Config) ([]SpeedupRow, error) {
	type cse struct {
		space partition.Space
		n     int
		m     int
		obj   core.Objective
	}
	var cases []cse
	if cfg.Full {
		cases = []cse{
			{partition.Linear, 20, 128, core.SingleObjective},
			{partition.Linear, 24, 128, core.SingleObjective},
			{partition.Bushy, 15, 32, core.SingleObjective},
			{partition.Bushy, 18, 64, core.SingleObjective},
			{partition.Linear, 16, 256, core.MultiObjective},
			{partition.Linear, 18, 256, core.MultiObjective},
			{partition.Linear, 20, 256, core.MultiObjective},
		}
	} else {
		cases = []cse{
			{partition.Linear, 14, 64, core.SingleObjective},
			{partition.Linear, 16, 128, core.SingleObjective},
			{partition.Bushy, 12, 16, core.SingleObjective},
			{partition.Linear, 14, 128, core.MultiObjective},
		}
	}
	var out []SpeedupRow
	for _, c := range cases {
		row, err := speedupCase(cfg, c.space, c.n, c.m, c.obj)
		if err != nil {
			return nil, err
		}
		out = append(out, row)
		cfg.progressf("speedups: %v-%d m=%d %v done", c.space, c.n, c.m, c.obj)
	}
	return out, nil
}

func speedupCase(cfg Config, space partition.Space, n, m int, obj core.Objective) (SpeedupRow, error) {
	row := SpeedupRow{Space: space, N: n, Workers: m, Objective: obj}
	qs, err := cfg.batch(n, workload.Star)
	if err != nil {
		return row, err
	}
	spec := core.JobSpec{Space: space, Workers: m, Objective: obj}
	if obj == core.MultiObjective {
		spec.Alpha = DefaultAlpha
	}
	serialSpec := spec
	serialSpec.Workers = 1

	var virt []float64
	for _, q := range qs {
		// Serial reference: worker time only, no communication (the
		// paper measures the classical algorithm on a single node).
		serialRes, err := core.RunWorkerContext(cfg.context(), q, serialSpec, 0)
		if err != nil {
			return row, err
		}
		serialVirtual := time.Duration(float64(serialRes.Stats.WorkUnits()) * cluster.Default().NsPerWorkUnit)

		parRes, err := runMPQ(cfg, q, spec)
		if err != nil {
			return row, err
		}
		virt = append(virt, float64(serialVirtual)/float64(parRes.Cluster.VirtualTime))
	}
	row.Virtual = median(virt)
	return row, nil
}

// SpeedupsTable renders the speedup rows.
func SpeedupsTable(rows []SpeedupRow) *Table {
	t := &Table{
		Title:   "§6.2 — speedup of parallel over serial optimization (medians)",
		Caption: "virtual: simulated cluster including communication",
		Columns: []string{"space", "tables", "workers", "objective", "virtual speedup"},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{
			r.Space.String(), fmt.Sprintf("%d", r.N), fmt.Sprintf("%d", r.Workers),
			r.Objective.String(), fmtFloat(r.Virtual),
		})
	}
	return t
}
