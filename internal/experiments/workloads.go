package experiments

import (
	"fmt"

	"mpq/internal/catalog"
	"mpq/internal/core"
	"mpq/internal/partition"
	"mpq/internal/query"
	"mpq/internal/workload"
)

// WorkloadsRow is one measured workload configuration of the workload
// sweep: a join-graph shape (or TPC-style schema) with its median
// simulated optimization time, network traffic and peak memo size.
type WorkloadsRow struct {
	Workload string // shape or schema name
	N        int    // tables
	Preds    int    // predicates (median config is representative: fixed per workload)
	Workers  int
	TimeMs   float64
	Bytes    float64
	Memo     float64
}

// Workloads sweeps every join-graph shape — including the snowflake
// extension and a correlated-selectivity variant — plus the built-in
// TPC-style schema queries, and measures MPQ on the simulated cluster.
// This goes beyond the paper's evaluation (§6 uses Steinbrunn-style
// independent selectivities only); it is the realistic-workload
// regression surface that docs/workloads.md describes.
func Workloads(cfg Config) ([]WorkloadsRow, error) {
	n := 9
	workers := 8
	if cfg.Full {
		n = 13
		workers = 32
	}
	var rows []WorkloadsRow

	measure := func(name string, qs []*query.Query) error {
		spec := core.JobSpec{Space: partition.Linear, Workers: workers}
		if m := partition.MaxWorkers(partition.Linear, qs[0].N()); spec.Workers > m {
			spec.Workers = m
		}
		s, err := cfg.measure(qs, spec, false)
		if err != nil {
			return err
		}
		rows = append(rows, WorkloadsRow{
			Workload: name, N: qs[0].N(), Preds: len(qs[0].Preds), Workers: spec.Workers,
			TimeMs: median(s.time), Bytes: median(s.bytes), Memo: median(s.memo),
		})
		cfg.progressf("workloads: %s done", name)
		return nil
	}

	for _, shape := range workload.Shapes {
		qs, err := cfg.batch(n, shape)
		if err != nil {
			return nil, err
		}
		if err := measure(shape.String(), qs); err != nil {
			return nil, err
		}
	}

	// Correlated-selectivity stress: the star workload with strongly
	// correlated predicates, skewing the cost landscape the pruners see.
	corr := workload.NewParams(n, workload.Star)
	corr.Correlation = 0.8
	qs, err := workload.Batch(corr, cfg.BaseSeed, cfg.Queries)
	if err != nil {
		return nil, err
	}
	if err := measure("Star(corr=0.8)", qs); err != nil {
		return nil, err
	}

	// TPC-style schema queries are fixed per scale factor, so a single
	// query per schema suffices.
	sf := 1.0
	for _, name := range catalog.SchemaNames() {
		sch, err := catalog.BuiltinSchema(name)
		if err != nil {
			return nil, err
		}
		_, q, err := workload.FromSchema(sch, sf)
		if err != nil {
			return nil, err
		}
		if err := measure(fmt.Sprintf("%s(sf=%g)", name, sf), []*query.Query{q}); err != nil {
			return nil, err
		}
	}
	return rows, nil
}

// WorkloadsTable renders the workload sweep.
func WorkloadsTable(rows []WorkloadsRow) *Table {
	t := &Table{
		Title:   "Workload sweep — MPQ on every shape and TPC-style schema (median over queries)",
		Caption: "random shapes use Steinbrunn statistics; schemas use fixed TPC-style statistics at sf=1",
		Columns: []string{"workload", "tables", "preds", "workers", "time (ms)", "net (bytes)", "memo (relations)"},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{
			r.Workload,
			fmt.Sprintf("%d", r.N),
			fmt.Sprintf("%d", r.Preds),
			fmt.Sprintf("%d", r.Workers),
			fmtFloat(r.TimeMs),
			fmtFloat(r.Bytes),
			fmtFloat(r.Memo),
		})
	}
	return t
}
