package experiments

import (
	"fmt"

	"mpq/internal/cluster"
	"mpq/internal/core"
	"mpq/internal/partition"
	"mpq/internal/sched"
	"mpq/internal/wire"
	"mpq/internal/workload"
)

// StragglerRow is one measured (stall factor, policy) point of the
// straggler sweep: median virtual optimization time under a scripted
// stall, with and without speculative re-dispatch, against the
// fault-free schedule on the same bounded node pool.
type StragglerRow struct {
	// Tables, Workers and Nodes describe the workload and pool.
	Tables  int
	Workers int
	Nodes   int
	// StallFactor is the scripted slowdown of node 0 (0 = fault-free
	// baseline row).
	StallFactor float64
	// Speculate reports whether the master raced stragglers against
	// speculative clones.
	Speculate bool
	// TimeMs is the median virtual optimization time over the queries.
	TimeMs float64
	// XClean is TimeMs over the fault-free median — the price of the
	// stall under this policy.
	XClean float64
	// Counters are the simulated master's totals over the query batch.
	sched.Counters
	// WastedPct is speculative race losers' burned work as a share of
	// the batch's useful DP work.
	WastedPct float64
	// PlanSafe reports that every query's chosen plan was fingerprint-
	// identical to the fault-free run — adaptivity changed when things
	// ran, never what was computed.
	PlanSafe bool
}

// stragglerScale returns the sweep dimensions.
func stragglerScale(cfg Config) (tables, workers, nodes int, factors []float64) {
	if cfg.Full {
		return 14, 16, 8, []float64{50, 200, 1000}
	}
	return 10, 8, 4, []float64{50, 200}
}

// Stragglers sweeps stall factor × {wait, speculate} on the simulated
// cluster: node 0 of a bounded pool computes StallFactor×
// slower than the model's rate, and the simulated master either waits
// out the straggler or races it against a speculative clone on an idle
// node (the netrun master's policy, in virtual time). Every run's chosen
// plan is checked fingerprint-identical to the fault-free run; the sweep
// measures only when answers arrive, never what they are.
func Stragglers(cfg Config) ([]StragglerRow, error) {
	tables, workers, nodes, factors := stragglerScale(cfg)
	queries, err := cfg.batch(tables, workload.Star)
	if err != nil {
		return nil, err
	}
	spec := core.JobSpec{Space: partition.Linear, Workers: workers}
	model := cluster.Default()
	model.Nodes = nodes

	// Fault-free baseline on the same bounded pool: the reference both
	// for time (XClean) and for the plan fingerprints.
	cleanTimes := make([]float64, len(queries))
	cleanFPs := make([]string, len(queries))
	for i, q := range queries {
		if err := cfg.canceled(); err != nil {
			return nil, err
		}
		res, err := cluster.Run(cfg.context(), model, q, spec, cluster.Faults{})
		if err != nil {
			return nil, err
		}
		cleanTimes[i] = ms(res.Cluster.VirtualTime)
		cleanFPs[i] = wire.PlanFingerprint(res.Best)
	}
	cleanMedian := median(append([]float64{}, cleanTimes...))
	cfg.progressf("stragglers: fault-free baseline done (median %.1f ms)", cleanMedian)

	rows := []StragglerRow{{
		Tables: tables, Workers: workers, Nodes: nodes,
		TimeMs: cleanMedian, XClean: 1, PlanSafe: true,
	}}
	for _, factor := range factors {
		for _, speculate := range []bool{false, true} {
			if err := cfg.canceled(); err != nil {
				return nil, err
			}
			faults := cluster.Faults{Stalled: []int{0}, StallFactor: factor, Policy: sched.Config{Speculate: speculate}}
			row := StragglerRow{
				Tables: tables, Workers: workers, Nodes: nodes,
				StallFactor: factor, Speculate: speculate, PlanSafe: true,
			}
			times := make([]float64, 0, len(queries))
			var wasted, work uint64
			for i, q := range queries {
				res, err := cluster.Run(cfg.context(), model, q, spec, faults)
				if err != nil {
					return nil, err
				}
				times = append(times, ms(res.Cluster.VirtualTime))
				row.Add(res.Cluster.Counters)
				wasted += res.Cluster.WastedWork
				work += res.Stats.WorkUnits()
				if wire.PlanFingerprint(res.Best) != cleanFPs[i] {
					row.PlanSafe = false
				}
			}
			row.TimeMs = median(times)
			row.XClean = row.TimeMs / cleanMedian
			if work > 0 {
				row.WastedPct = 100 * float64(wasted) / float64(work)
			}
			rows = append(rows, row)
			cfg.progressf("stragglers: stall=%gx speculate=%v done (%.1fx fault-free)",
				factor, speculate, row.XClean)
		}
	}
	return rows, nil
}

// StragglersTable renders the straggler sweep.
func StragglersTable(rows []StragglerRow) *Table {
	t := &Table{
		Title:   "Straggler handling — scripted stall on a bounded node pool, wait vs speculate",
		Caption: "adaptive virtual-time scheduler; plans stay fingerprint-identical to the fault-free run",
		Columns: []string{"tables", "workers", "nodes", "stall", "policy", "time (ms)", "x fault-free", "speculations", "re-dispatches", "wasted %", "plans identical"},
	}
	for _, r := range rows {
		stall := "none"
		if r.StallFactor > 0 {
			stall = fmt.Sprintf("%gx", r.StallFactor)
		}
		policy := "wait"
		if r.Speculate {
			policy = "speculate"
		}
		safe := "yes"
		if !r.PlanSafe {
			safe = "NO"
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", r.Tables),
			fmt.Sprintf("%d", r.Workers),
			fmt.Sprintf("%d", r.Nodes),
			stall,
			policy,
			fmtFloat(r.TimeMs),
			fmt.Sprintf("%.2fx", r.XClean),
			fmt.Sprintf("%d", r.Speculations),
			fmt.Sprintf("%d", r.Redispatched),
			fmt.Sprintf("%.1f", r.WastedPct),
			safe,
		})
	}
	return t
}
