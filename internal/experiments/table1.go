package experiments

import (
	"errors"
	"fmt"
	"time"

	"mpq/internal/cluster"
	"mpq/internal/core"
	"mpq/internal/dp"
	"mpq/internal/partition"
	"mpq/internal/query"
	"mpq/internal/wire"
	"mpq/internal/workload"
)

// Table1Options configures the precision-vs-parallelism experiment.
type Table1Options struct {
	// Sizes are the query sizes (paper: 14, 16, 18, 20 tables).
	Sizes []int
	// Alphas is the approximation-precision grid (paper's column set).
	Alphas []float64
	// Budgets are the optimization-time budgets. The paper uses 10/30/60
	// wall-clock seconds on its Spark testbed; our virtual cluster is
	// faster per work unit, so the default budgets are scaled down to
	// produce the same gradient (the paper's §6, cited in PAPER.md, has
	// the original budgets).
	Budgets []time.Duration
}

// DefaultTable1Options returns paper-shaped defaults for the given scale.
func DefaultTable1Options(full bool) Table1Options {
	o := Table1Options{
		Alphas: []float64{1.01, 1.05, 1.25, 1.5, 2, 5, 10},
	}
	if full {
		o.Sizes = []int{14, 16, 18, 20}
		o.Budgets = []time.Duration{2 * time.Second, 5 * time.Second, 10 * time.Second}
	} else {
		// The 100 ms task-launch floor of the default cluster model makes
		// sub-150ms budgets unreachable by construction; the quick budgets
		// straddle the feasibility edges of the 10- and 12-table sizes.
		o.Sizes = []int{10, 12}
		o.Budgets = []time.Duration{150 * time.Millisecond, 250 * time.Millisecond, 600 * time.Millisecond}
	}
	return o
}

// Table1Cell is the minimal parallelism for one (budget, size, alpha)
// combination; Infinite means even the maximum worker count missed the
// budget in a majority of test cases.
type Table1Cell struct {
	MinWorkers int
	Infinite   bool
}

func (c Table1Cell) String() string {
	if c.Infinite {
		return "inf"
	}
	return fmt.Sprintf("%d", c.MinWorkers)
}

// Table1Result holds the full grid: Cells[budget][size][alpha].
type Table1Result struct {
	Options Table1Options
	Queries int
	Cells   [][][]Table1Cell
}

// Table1 reproduces Table 1: the minimal degree of parallelism required
// to reach approximation precision α within a fixed optimization-time
// budget, for multi-objective optimization in linear plan spaces. A cell
// passes if a majority of the random test queries finish within the
// budget (the paper requires 8 of 15).
//
// Because the plan-space partitions are skew-free (§4, and verified by
// core's tests), one representative partition per worker count is
// measured and its virtual time evaluated against each budget; runs are
// aborted early once they exceed the largest budget's work allowance.
func Table1(cfg Config, opts Table1Options) (*Table1Result, error) {
	// The paper uses 15 test cases for Table 1 (vs 20 queries for the
	// figures); cap accordingly.
	if cfg.Queries > 15 {
		cfg.Queries = 15
	}
	res := &Table1Result{Options: opts, Queries: cfg.Queries}
	maxBudget := opts.Budgets[len(opts.Budgets)-1]
	need := cfg.Queries/2 + 1

	for _, n := range opts.Sizes {
		qs, err := cfg.batch(n, workload.Star)
		if err != nil {
			return nil, err
		}
		// The paper tries up to 128 workers in Table 1.
		counts := workerCounts(partition.MaxWorkers(partition.Linear, n), 128)
		// times[{ai,qi,mi}] = virtual time for query qi with alpha index
		// ai and the mi-th worker count (-1: exceeded largest budget).
		type key struct{ ai, qi, mi int }
		times := map[key]time.Duration{}
		for ai, alpha := range opts.Alphas {
			for qi, q := range qs {
				for mi, m := range counts {
					t, ok, err := table1Time(cfg, q, alpha, m, maxBudget)
					if err != nil {
						return nil, err
					}
					if ok {
						times[key{ai, qi, mi}] = t
					} else {
						times[key{ai, qi, mi}] = -1
					}
				}
			}
		}
		for bi, budget := range opts.Budgets {
			if len(res.Cells) <= bi {
				res.Cells = append(res.Cells, [][]Table1Cell{})
			}
			row := make([]Table1Cell, len(opts.Alphas))
			for ai := range opts.Alphas {
				cell := Table1Cell{Infinite: true}
				for mi, m := range counts {
					ok := 0
					for qi := range qs {
						if t := times[key{ai, qi, mi}]; t >= 0 && t <= budget {
							ok++
						}
					}
					if ok >= need {
						cell = Table1Cell{MinWorkers: m}
						break
					}
				}
				row[ai] = cell
			}
			res.Cells[bi] = append(res.Cells[bi], row)
		}
		cfg.progressf("table1: %d tables done", n)
	}
	return res, nil
}

// table1Time measures the virtual optimization time for one (query,
// alpha, workers) combination using one representative partition
// (partitions are skew-free). ok=false means the work exceeded the
// largest budget and the run was aborted.
func table1Time(cfg Config, q *query.Query, alpha float64, m int, maxBudget time.Duration) (time.Duration, bool, error) {
	spec := core.JobSpec{
		Space: partition.Linear, Workers: m,
		Objective: core.MultiObjective, Alpha: alpha,
	}
	cs, err := partition.ForPartition(partition.Linear, q.N(), 0, m)
	if err != nil {
		return 0, false, err
	}
	model := cluster.Default()
	// Allow 2x the largest budget's work before giving up, so comms
	// overhead cannot push a passing run over the abort line.
	limit := uint64(2*float64(maxBudget.Nanoseconds())/model.NsPerWorkUnit) + 1
	dpo := spec.DPOptions()
	dpo.MaxWorkUnits = limit
	res, err := dp.RunContext(cfg.context(), q, cs, dpo)
	if errors.Is(err, dp.ErrWorkLimit) {
		return 0, false, nil
	}
	if err != nil {
		return 0, false, err
	}
	reqB := len(wire.EncodeJobRequest(&wire.JobRequest{Spec: spec, PartID: 0, Query: q}))
	respB := len(wire.EncodeJobResponse(&wire.JobResponse{Plans: res.Plans, Stats: res.Stats}))
	reqs := make([]int, m)
	resps := make([]int, m)
	units := make([]uint64, m)
	for i := range reqs {
		reqs[i], resps[i], units[i] = reqB, respB, res.Stats.WorkUnits()
	}
	total, _ := model.MPQTime(reqs, resps, units)
	total += time.Duration(m*len(res.Plans)) * model.FinalPrunePerPlan
	return total, true, nil
}

// Table1Table renders the result in the paper's layout.
func Table1Table(r *Table1Result) *Table {
	t := &Table{
		Title: "Table 1 — minimal parallelism to reach precision α within a time budget (multi-objective, linear)",
		Caption: fmt.Sprintf("budgets %v; majority of %d random queries per cell; 'inf' = unreachable at max parallelism",
			r.Options.Budgets, r.Queries),
		Columns: append([]string{"budget", "tables"}, alphasHeader(r.Options.Alphas)...),
	}
	for bi, budget := range r.Options.Budgets {
		for si, n := range r.Options.Sizes {
			row := []string{budget.String(), fmt.Sprintf("%d", n)}
			for ai := range r.Options.Alphas {
				row = append(row, r.Cells[bi][si][ai].String())
			}
			t.Rows = append(t.Rows, row)
		}
	}
	return t
}

func alphasHeader(alphas []float64) []string {
	out := make([]string, len(alphas))
	for i, a := range alphas {
		out[i] = fmt.Sprintf("α=%g", a)
	}
	return out
}
