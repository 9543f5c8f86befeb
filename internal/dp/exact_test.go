package dp_test

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"mpq/internal/cost"
	"mpq/internal/dp"
	"mpq/internal/partition"
	"mpq/internal/plan"
	"mpq/internal/query"
	"mpq/internal/workload"
)

var updateStats = flag.Bool("update-stats", false,
	"rewrite testdata/exact_stats.txt from this run (only when the DP's work is meant to change)")

const exactStatsFile = "testdata/exact_stats.txt"

// exactConfigs are the rule × cost-model combinations the engine
// serves, each rule with and without interesting orders where it is
// used both ways: every one of them must reproduce the reference
// formulas bit for bit, and the recorded work.
var exactConfigs = []struct {
	name string
	opts func() dp.Options
}{
	{"single", func() dp.Options { return dp.Options{} }},
	{"orders", func() dp.Options { return dp.Options{InterestingOrders: true} }},
	{"pareto1", func() dp.Options { return dp.Options{Pruner: dp.Pareto{Alpha: 1}} }},
	{"pareto2", func() dp.Options { return dp.Options{Pruner: dp.Pareto{Alpha: 2}} }},
	{"pareto2orders", func() dp.Options {
		return dp.Options{InterestingOrders: true, Pruner: dp.Pareto{Alpha: 2}}
	}},
	{"parametric", func() dp.Options {
		return dp.Options{Model: cost.Parametric(3), Pruner: dp.Pareto{Alpha: 1}}
	}},
	{"robust", func() dp.Options {
		return dp.Options{Model: cost.Robust(4), Pruner: dp.Pareto{Alpha: 1}}
	}},
	{"robustorders", func() dp.Options {
		return dp.Options{Model: cost.Robust(2), InterestingOrders: true, Pruner: dp.Pareto{Alpha: 1.5}}
	}},
}

// runPartition runs the engine as RunContext does, on width workers
// (width − 1 helpers), but keeps it, so the test can ask for the memo's
// high-endpoint cardinalities.
func runPartition(t *testing.T, q *query.Query, cs *partition.ConstraintSet, opts dp.Options, width int) (*dp.Engine, *dp.Result) {
	t.Helper()
	opts.Helpers = width - 1
	eng, err := dp.NewEngine(q, cs, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.RunAll(); err != nil {
		t.Fatal(err)
	}
	res, err := eng.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return eng, res
}

// checkExact asserts that every join node's Cost and Buffer are == (not
// approximately equal) to the reference formulas recomputed from its
// children, and returns the number of join nodes checked.
func checkExact(t *testing.T, eng *dp.Engine, q *query.Query, m cost.Model, n *plan.Node) int {
	t.Helper()
	if n.IsScan {
		return 0
	}
	spec := plan.JoinSpec{Alg: n.Alg, OutCard: n.Card, Pred: n.Pred, Order: n.Order}
	if n.Alg == cost.SortMerge && n.Pred != plan.NoPred {
		la, ra := plan.MergeAttrs(q.Preds[n.Pred], n.Left.Tables)
		spec.LSorted, spec.RSorted = n.Left.Order == la, n.Right.Order == ra
	}
	var wantCost, wantBuf float64
	if m.Second == cost.RobustCost {
		lHi, lok := eng.CardHiFor(n.Left.Tables)
		rHi, rok := eng.CardHiFor(n.Right.Tables)
		if !lok || !rok {
			t.Fatalf("operand of %v missing from the memo", n.Tables)
		}
		wantCost, wantBuf = plan.JoinScalarsRobust(m, n.Left, n.Right, spec, lHi, rHi)
	} else {
		wantCost, wantBuf = plan.JoinScalars(m, n.Left, n.Right, spec)
	}
	if n.Cost != wantCost || n.Buffer != wantBuf {
		t.Fatalf("%v %v: cost %b buffer %b, reference formula gives %b %b",
			n.Alg, n.Tables, n.Cost, n.Buffer, wantCost, wantBuf)
	}
	return 1 + checkExact(t, eng, q, m, n.Left) + checkExact(t, eng, q, m, n.Right)
}

// The hoisted per-set arithmetic of combine/offer is the reference
// formula, bit for bit, and does the same work as the per-candidate
// loop it replaced: every plan of every configuration recomputes
// exactly from plan.JoinScalars(Robust), and the work counters equal
// the table recorded from the parent commit's engine (PR 18 recorded
// it from unmodified code before rewriting the loop).
func TestExactArithmeticAndRecordedWork(t *testing.T) {
	recorded := checkRecordedWork(t, 1)
	if *updateStats {
		if err := os.WriteFile(exactStatsFile, []byte(recorded), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// checkRecordedWork runs every case of exactStatsFile on width workers,
// checks every plan's arithmetic with checkExact and the work counters
// against the file (unless -update-stats), and returns the table this
// run records.
func checkRecordedWork(t *testing.T, width int) string {
	want := map[string]string{}
	if !*updateStats {
		f, err := os.Open(exactStatsFile)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		for sc := bufio.NewScanner(f); sc.Scan(); {
			if key, stats, ok := strings.Cut(sc.Text(), "\t"); ok && !strings.HasPrefix(key, "#") {
				want[key] = stats
			}
		}
	}
	// Every case is a parallel subtest that writes its own slots; the
	// table is assembled in case order afterwards.
	var keys, got []string
	var joins []int
	t.Run(fmt.Sprintf("width%d", width), func(t *testing.T) {
		for si, shape := range workload.Shapes {
			for _, n := range []int{6, 9} {
				q := workload.MustGenerate(workload.NewParams(n, shape), int64(100*si+n))
				for _, space := range []partition.Space{partition.Linear, partition.Bushy} {
					for _, m := range []int{1, 4} {
						for _, cfg := range exactConfigs {
							i := len(keys)
							keys = append(keys, fmt.Sprintf("%v-%d/%v/m%d/%s", shape, n, space, m, cfg.name))
							got, joins = append(got, ""), append(joins, 0)
							t.Run(strings.ReplaceAll(keys[i], "/", "-"), func(t *testing.T) {
								t.Parallel()
								var stats []string
								for part := 0; part < m; part++ {
									cs, err := partition.ForPartition(space, n, part, m)
									if err != nil {
										t.Fatal(err)
									}
									opts := cfg.opts()
									eng, res := runPartition(t, q, cs, opts, width)
									model := opts.Model
									if model == (cost.Model{}) {
										model = cost.Default()
									}
									for _, p := range res.Plans {
										joins[i] += checkExact(t, eng, q, model, p)
									}
									s := res.Stats
									stats = append(stats, fmt.Sprintf("%d %d %d %d %d",
										s.SetsProcessed, s.SplitsTried, s.PlansKept, s.PlansPruned, s.MemoEntries))
								}
								got[i] = strings.Join(stats, " | ")
								if !*updateStats && got[i] != want[keys[i]] {
									t.Errorf("%s at width %d: work counters\n got  %s\n want %s", keys[i], width, got[i], want[keys[i]])
								}
							})
						}
					}
				}
			}
		}
	})
	t.Logf("%d cases at width %d", len(keys), width)
	var recorded strings.Builder
	recorded.WriteString("# case\tSetsProcessed SplitsTried PlansKept PlansPruned MemoEntries, per partition\n")
	total := 0
	for i, key := range keys {
		fmt.Fprintf(&recorded, "%s\t%s\n", key, got[i])
		total += joins[i]
	}
	if total < 1000 {
		t.Fatalf("only %d join nodes checked; the test would be vacuous", total)
	}
	return recorded.String()
}
