package exec

import (
	"context"
	"math"
	"testing"

	"mpq/internal/brute"
	"mpq/internal/catalog"
	"mpq/internal/core"
	"mpq/internal/cost"
	"mpq/internal/partition"
	"mpq/internal/plan"
	"mpq/internal/query"
	"mpq/internal/workload"
)

// smallWorkload generates a query whose tables are small enough to
// materialize and join exhaustively.
func smallWorkload(t testing.TB, n int, shape workload.Shape, seed int64) (*catalog.Catalog, *query.Query, *DB) {
	t.Helper()
	p := workload.NewParams(n, shape)
	p.MinCard, p.MaxCard = 20, 300
	p.MinDomain, p.MaxDomain = 2, 40
	cat, q, err := workload.Generate(p, seed)
	if err != nil {
		t.Fatal(err)
	}
	db, err := Generate(cat, seed+1000, Limits{})
	if err != nil {
		t.Fatal(err)
	}
	return cat, q, db
}

func TestGenerateShapes(t *testing.T) {
	cat, _, db := smallWorkload(t, 4, workload.Star, 1)
	if db.NumTables() != 4 {
		t.Fatalf("tables = %d", db.NumTables())
	}
	for i := 0; i < 4; i++ {
		want := int(cat.Table(i).Cardinality + 0.5)
		if db.TableRows(i) != want {
			t.Fatalf("table %d rows = %d want %d", i, db.TableRows(i), want)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	cat, _, _ := smallWorkload(t, 3, workload.Chain, 2)
	a, err := Generate(cat, 7, Limits{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(cat, 7, Limits{})
	if err != nil {
		t.Fatal(err)
	}
	for ti := 0; ti < 3; ti++ {
		for ri := range a.tables[ti] {
			for ci := range a.tables[ti][ri] {
				if a.tables[ti][ri][ci] != b.tables[ti][ri][ci] {
					t.Fatal("same seed produced different data")
				}
			}
		}
	}
}

func TestGenerateRespectsLimit(t *testing.T) {
	cat := catalog.New()
	cat.MustAddTable(catalog.Table{Name: "big", Cardinality: 100,
		Attributes: []catalog.Attribute{{Name: "a", Domain: 5}}})
	if _, err := Generate(cat, 0, Limits{MaxRows: 10}); err == nil {
		t.Fatal("limit not enforced")
	}
}

// The headline property: every plan the brute-force enumerator can build
// for a query returns the same result multiset when executed.
func TestAllPlansProduceSameResult(t *testing.T) {
	for _, shape := range []workload.Shape{workload.Chain, workload.Star} {
		_, q, db := smallWorkload(t, 4, shape, 3)
		var want string
		plans := brute.AllPlans(q, partition.Bushy, brute.Options{InterestingOrders: true})
		if len(plans) < 50 {
			t.Fatalf("only %d plans enumerated", len(plans))
		}
		// Cap the number of executed plans to keep the test fast, while
		// covering all operators and shapes.
		step := len(plans)/60 + 1
		checked := 0
		for i := 0; i < len(plans); i += step {
			res, err := Execute(plans[i], q, db, Limits{})
			if err != nil {
				t.Fatalf("%v: %v", plans[i], err)
			}
			fp := res.Fingerprint()
			if want == "" {
				want = fp
			} else if fp != want {
				t.Fatalf("%v: result %s differs from %s", plans[i], fp, want)
			}
			checked++
		}
		if checked < 30 {
			t.Fatalf("only %d plans executed", checked)
		}
	}
}

// The optimizer's chosen plan and a deliberately different plan agree.
func TestOptimalPlanMatchesReference(t *testing.T) {
	_, q, db := smallWorkload(t, 5, workload.Cycle, 4)
	best, err := core.OptimizeContext(context.Background(), q, core.JobSpec{Space: partition.Bushy, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	opt, err := Execute(best.Best, q, db, Limits{})
	if err != nil {
		t.Fatal(err)
	}
	// Reference: left-deep plan in table order, all nested-loop joins.
	ref := plan.Scan(cost.Default(), q, 0)
	for ti := 1; ti < q.N(); ti++ {
		r := plan.Scan(cost.Default(), q, ti)
		card := q.CardOf(ref.Tables.Add(ti))
		ref = plan.Join(cost.Default(), ref, r, plan.JoinSpec{
			Alg: cost.NestedLoop, OutCard: card, Pred: plan.NoPred, Order: query.NoOrder,
		})
	}
	refRes, err := Execute(ref, q, db, Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if opt.Fingerprint() != refRes.Fingerprint() {
		t.Fatal("optimal plan result differs from reference plan result")
	}
}

// MPQ's distributed answer executes to the same result as the serial one.
func TestMPQPlanExecutes(t *testing.T) {
	_, q, db := smallWorkload(t, 5, workload.Star, 6)
	ans, err := core.OptimizeContext(context.Background(), q, core.JobSpec{Space: partition.Linear, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	serial, err := core.OptimizeContext(context.Background(), q, core.JobSpec{Space: partition.Linear, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	a, err := Execute(ans.Best, q, db, Limits{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Execute(serial.Best, q, db, Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatal("MPQ and serial plans execute to different results")
	}
}

// Cardinality estimation sanity: on a two-table equality join with
// uniform data, the estimate matches the measured size within noise.
func TestCardinalityEstimateTracksMeasurement(t *testing.T) {
	cat := catalog.New()
	cat.MustAddTable(catalog.Table{Name: "l", Cardinality: 2000,
		Attributes: []catalog.Attribute{{Name: "k", Domain: 50}}})
	cat.MustAddTable(catalog.Table{Name: "r", Cardinality: 1000,
		Attributes: []catalog.Attribute{{Name: "k", Domain: 50}}})
	q := query.MustNew([]query.Table{{Name: "l", Cardinality: 2000}, {Name: "r", Cardinality: 1000}})
	sel, err := cat.EqSelectivity(0, 0, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	q.MustAddPredicate(query.Predicate{Left: 0, Right: 1, Selectivity: sel})
	q.Freeze()
	db, err := Generate(cat, 9, Limits{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.OptimizeContext(context.Background(), q, core.JobSpec{Space: partition.Linear, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	out, err := Execute(res.Best, q, db, Limits{})
	if err != nil {
		t.Fatal(err)
	}
	est := res.Best.Card
	meas := float64(len(out.Rows))
	if math.Abs(est-meas)/est > 0.15 {
		t.Fatalf("estimate %g vs measured %g: relative error too large", est, meas)
	}
}

func TestCrossProductExecution(t *testing.T) {
	q := query.MustNew([]query.Table{{Name: "a", Cardinality: 10}, {Name: "b", Cardinality: 20}})
	q.Freeze()
	cat := catalog.New()
	cat.MustAddTable(catalog.Table{Name: "a", Cardinality: 10,
		Attributes: []catalog.Attribute{{Name: "x", Domain: 3}}})
	cat.MustAddTable(catalog.Table{Name: "b", Cardinality: 20,
		Attributes: []catalog.Attribute{{Name: "x", Domain: 3}}})
	db, err := Generate(cat, 0, Limits{})
	if err != nil {
		t.Fatal(err)
	}
	for _, alg := range cost.Algs {
		l, r := plan.Scan(cost.Default(), q, 0), plan.Scan(cost.Default(), q, 1)
		p := plan.Join(cost.Default(), l, r, plan.JoinSpec{
			Alg: alg, OutCard: 200, Pred: plan.NoPred, Order: query.NoOrder,
		})
		if alg == cost.SortMerge {
			// The optimizer never emits SMJ for cross products, but the
			// executor must still handle it (falls back to nested loop).
			continue
		}
		out, err := Execute(p, q, db, Limits{})
		if err != nil {
			t.Fatal(err)
		}
		if len(out.Rows) != 200 {
			t.Fatalf("%v cross product rows = %d want 200", alg, len(out.Rows))
		}
	}
}

func TestRowLimitEnforced(t *testing.T) {
	_, q, db := smallWorkload(t, 4, workload.Star, 8)
	res, err := core.OptimizeContext(context.Background(), q, core.JobSpec{Space: partition.Linear, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Execute(res.Best, q, db, Limits{MaxRows: 1}); err == nil {
		t.Fatal("row limit not enforced")
	}
}

func TestFingerprintOrderIndependence(t *testing.T) {
	r1 := &Relation{
		Schema: []Col{{Table: 0, Attr: 0}, {Table: 1, Attr: 0}},
		Rows:   [][]int64{{1, 2}, {3, 4}},
	}
	r2 := &Relation{
		Schema: []Col{{Table: 1, Attr: 0}, {Table: 0, Attr: 0}}, // swapped columns
		Rows:   [][]int64{{4, 3}, {2, 1}},                       // swapped rows
	}
	if r1.Fingerprint() != r2.Fingerprint() {
		t.Fatal("fingerprint should be row- and column-order independent")
	}
	r3 := &Relation{Schema: r1.Schema, Rows: [][]int64{{1, 2}, {3, 5}}}
	if r1.Fingerprint() == r3.Fingerprint() {
		t.Fatal("different results share a fingerprint")
	}
}

func TestExecuteErrors(t *testing.T) {
	_, q, db := smallWorkload(t, 3, workload.Chain, 0)
	bad := &plan.Node{IsScan: true, Table: 99}
	if _, err := Execute(bad, q, db, Limits{}); err == nil {
		t.Fatal("unknown table accepted")
	}
	l := plan.Scan(cost.Default(), q, 0)
	r := plan.Scan(cost.Default(), q, 1)
	badAlg := &plan.Node{Left: l, Right: r, Alg: cost.JoinAlg(9), Tables: l.Tables.Union(r.Tables)}
	if _, err := Execute(badAlg, q, db, Limits{}); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
}
