package experiments

import (
	"context"
	"fmt"

	"mpq/internal/core"
	"mpq/internal/cost"
	"mpq/internal/estim"
	"mpq/internal/exec"
	"mpq/internal/partition"
	"mpq/internal/plan"
	"mpq/internal/query"
	"mpq/internal/workload"
)

// RegretRow is one configuration of the regret sweep: a workload shape
// under one source of estimation error, with the regret of plans chosen
// from noisy estimates. Regret is the true-cost ratio against the
// true-optimal plan — Reannotate the chosen plan under the true
// selectivities, divide by the true optimum's cost — so 1 means the
// estimation error was harmless and larger values quantify the damage.
type RegretRow struct {
	Workload string
	N        int
	// Source names the error source: synthetic per-predicate noise
	// ("eps=2") or measured divergence on materialized data ("zipf s=1").
	Source string
	// QErr is the worst per-predicate q-error of the estimates actually
	// optimized against (1 = exact estimates).
	QErr float64
	// PointMed/PointMax are the median and worst regret of the
	// single-objective plan optimized from the noisy estimates.
	PointMed float64
	PointMax float64
	// RobustMed/RobustMax are the same for the robust plan (min
	// worst-case cost over the selectivity uncertainty band).
	RobustMed float64
	RobustMax float64
}

// Regret sweeps plan regret against estimation-error magnitude. Two
// legs:
//
// Synthetic: for each join-graph shape, optimize every query twice from
// q-error-perturbed estimates — single-objective (point) and robust
// with band 1+ε matching the noise bound — and cost both chosen plans
// under the true selectivities. At ε=0 both regrets are exactly 1 (the
// bit-identity guarantee); as ε grows point regret climbs. The sweep
// runs both symmetric noise (truth may sit on either side of the
// estimate) and underestimation-biased noise ("under" rows: estimates
// never exceed the truth, the bias real estimators exhibit). Under the
// bias the truth always lies inside the band the robust job plans
// against, which is where minimizing worst-case cost pays off in
// reduced worst-case regret.
//
// Measured: materialize a small workload with internal/exec (uniform
// and Zipf-skewed values), measure each predicate's true selectivity on
// the rows, and treat the catalog's uniform-independence estimates as
// the noisy input — estimation error as an executor actually produces
// it, not as a noise model assumes it.
func Regret(cfg Config) ([]RegretRow, error) {
	n := 8
	if cfg.Full {
		n = 11
	}
	shapes := []workload.Shape{workload.Star, workload.Chain, workload.Snowflake}
	sweeps := []struct {
		eps   float64
		under bool
	}{
		{0, false}, {0.5, false}, {1, false}, {2, false}, {4, false},
		{1, true}, {2, true}, {4, true},
	}
	m := cost.Default()
	spec := core.JobSpec{Space: partition.Linear, Workers: 1}

	var rows []RegretRow
	for _, shape := range shapes {
		qs, err := cfg.batch(n, shape)
		if err != nil {
			return nil, err
		}
		for _, sw := range sweeps {
			if err := cfg.canceled(); err != nil {
				return nil, err
			}
			qerr := 1.0
			var pointR, robustR []float64
			for i, q := range qs {
				noisy, err := estim.Perturb(q, estim.Noise{
					Magnitude: sw.eps, Seed: cfg.BaseSeed + 1000*int64(i) + 17, Underestimate: sw.under,
				})
				if err != nil {
					return nil, err
				}
				for j := range q.Preds {
					if e := estim.QError(noisy.Preds[j].Selectivity, q.Preds[j].Selectivity); e > qerr {
						qerr = e
					}
				}
				p, r, err := regretPair(cfg.context(), noisy, q, m, spec, 1+sw.eps)
				if err != nil {
					return nil, err
				}
				pointR = append(pointR, p)
				robustR = append(robustR, r)
			}
			src := fmt.Sprintf("eps=%g", sw.eps)
			if sw.under {
				src += " under"
			}
			rows = append(rows, RegretRow{
				Workload: shape.String(), N: n, Source: src, QErr: qerr,
				PointMed: median(pointR), PointMax: maxFloat(pointR),
				RobustMed: median(robustR), RobustMax: maxFloat(robustR),
			})
		}
		cfg.progressf("regret: %s done", shape)
	}

	for _, skew := range []float64{0, 1} {
		if err := cfg.canceled(); err != nil {
			return nil, err
		}
		row, err := regretMeasured(cfg, skew)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	cfg.progressf("regret: measured (exec) done")
	return rows, nil
}

// regretPair optimizes noisy estimates both ways — point
// (single-objective) and robust with the given band — and returns each
// plan's regret under the true query. Both the chosen plans and the
// true optimum are costed by Reannotate, so identical plans yield
// regret exactly 1.
func regretPair(ctx context.Context, noisy, truth *query.Query, m cost.Model, spec core.JobSpec, band float64) (point, robust float64, err error) {
	trueAns, err := core.OptimizeContext(ctx, truth, spec)
	if err != nil {
		return 0, 0, err
	}
	opt, err := trueAns.Best.Reannotate(truth, m)
	if err != nil {
		return 0, 0, err
	}
	pointAns, err := core.OptimizeContext(ctx, noisy, spec)
	if err != nil {
		return 0, 0, err
	}
	rspec := spec
	rspec.Objective = core.RobustObjective
	rspec.RobustBand = band
	robustAns, err := core.OptimizeContext(ctx, noisy, rspec)
	if err != nil {
		return 0, 0, err
	}
	if point, err = regretOf(pointAns.Best, truth, m, opt.Cost); err != nil {
		return 0, 0, err
	}
	if robust, err = regretOf(robustAns.Best, truth, m, opt.Cost); err != nil {
		return 0, 0, err
	}
	return point, robust, nil
}

// regretOf costs a chosen plan under the true selectivities and divides
// by the true-optimal cost.
func regretOf(chosen *plan.Node, truth *query.Query, m cost.Model, optCost float64) (float64, error) {
	re, err := chosen.Reannotate(truth, m)
	if err != nil {
		return 0, err
	}
	return re.Cost / optCost, nil
}

// regretMeasured is the executor-validated leg: materialize a small
// workload (Zipf value skew per attribute), measure every predicate's
// true selectivity on the rows, and report the regret of optimizing the
// catalog's estimates against the measured truth. The robust leg uses
// the engine's default band — the planner does not get to peek at the
// measured error.
func regretMeasured(cfg Config, skew float64) (RegretRow, error) {
	p := workload.NewParams(5, workload.Star)
	p.MinCard, p.MaxCard = 100, 1000
	cat, est, err := workload.Generate(p, cfg.BaseSeed+1)
	if err != nil {
		return RegretRow{}, err
	}
	db, err := exec.GenerateZipf(cat, cfg.BaseSeed+2, exec.Limits{}, skew)
	if err != nil {
		return RegretRow{}, err
	}
	truth, qerr, err := measuredQuery(est, db)
	if err != nil {
		return RegretRow{}, err
	}
	m := cost.Default()
	spec := core.JobSpec{Space: partition.Linear, Workers: 1}
	point, robust, err := regretPair(cfg.context(), est, truth, m, spec, core.DefaultRobustBand)
	if err != nil {
		return RegretRow{}, err
	}
	return RegretRow{
		Workload: "exec(Star)", N: est.N(), Source: fmt.Sprintf("zipf s=%g", skew), QErr: qerr,
		PointMed: point, PointMax: point, RobustMed: robust, RobustMax: robust,
	}, nil
}

// measuredQuery rebuilds a query with each predicate's selectivity
// measured on the materialized rows. Zero-match predicates are floored
// at one matching row pair so the query stays valid; measured q-error
// against the estimates is returned alongside.
func measuredQuery(est *query.Query, db *exec.DB) (*query.Query, float64, error) {
	out, err := query.New(est.Tables)
	if err != nil {
		return nil, 0, err
	}
	qerr := 1.0
	for _, pr := range est.Preds {
		sel, err := db.MeasuredSelectivity(pr.Left, pr.LeftAttr, pr.Right, pr.RightAttr)
		if err != nil {
			return nil, 0, err
		}
		if sel <= 0 {
			sel = 1 / (est.Card(pr.Left) * est.Card(pr.Right))
		}
		if sel > 1 {
			sel = 1
		}
		if e := estim.QError(pr.Selectivity, sel); e > qerr {
			qerr = e
		}
		pr.Selectivity = sel
		if err := out.AddPredicate(pr); err != nil {
			return nil, 0, err
		}
	}
	out.Freeze()
	return out, qerr, nil
}

// maxFloat returns the maximum of xs (NaN-free inputs assumed).
func maxFloat(xs []float64) float64 {
	out := xs[0]
	for _, x := range xs[1:] {
		if x > out {
			out = x
		}
	}
	return out
}

// RegretTable renders the regret sweep.
func RegretTable(rows []RegretRow) *Table {
	t := &Table{
		Title:   "Regret sweep — true-cost ratio of plans optimized under noisy estimates",
		Caption: "point = single-objective on noisy estimates; robust = min worst-case over the uncertainty band (1+eps synthetic, default band for measured rows); 'under' rows bias the noise to underestimates; regret 1 = true-optimal",
		Columns: []string{"workload", "tables", "error", "qerr(max)", "point med", "point max", "robust med", "robust max"},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{
			r.Workload,
			fmt.Sprintf("%d", r.N),
			r.Source,
			fmtFloat(r.QErr),
			fmtFloat(r.PointMed),
			fmtFloat(r.PointMax),
			fmtFloat(r.RobustMed),
			fmtFloat(r.RobustMax),
		})
	}
	return t
}
