package brute

import (
	"testing"

	"mpq/internal/cost"
	"mpq/internal/partition"
	"mpq/internal/plan"
	"mpq/internal/query"
	"mpq/internal/workload"
)

func gen(t testing.TB, n int, seed int64) *query.Query {
	t.Helper()
	return workload.MustGenerate(workload.NewParams(n, workload.Star), seed)
}

// Catalan-style counting: the number of left-deep operator trees over n
// tables with a algorithms per join is n! * a^(n-1) when every join can
// use every algorithm. With cross products allowed and a star join
// graph, SMJ is only available when a predicate connects the operands,
// so we verify the weaker structural properties instead and check exact
// counts on a clique (every pair connected).
func TestAllPlansCountLinearClique(t *testing.T) {
	q := workload.MustGenerate(workload.NewParams(4, workload.Clique), 0)
	plans := AllPlans(q, partition.Linear, Options{})
	// 4! join orders; per join 3 algorithms (clique: SMJ always has a
	// predicate): 24 * 27 = 648.
	if len(plans) != 648 {
		t.Fatalf("linear clique-4 plan count = %d want 648", len(plans))
	}
	for _, p := range plans {
		if !p.IsLeftDeep() {
			t.Fatalf("non-left-deep plan in linear enumeration: %v", p)
		}
	}
}

func TestAllPlansCountBushyClique(t *testing.T) {
	q := workload.MustGenerate(workload.NewParams(3, workload.Clique), 0)
	plans := AllPlans(q, partition.Bushy, Options{})
	// 3 leaf pairs to join first * 2 operand orders... exhaustively: the
	// number of ordered binary trees over 3 leaves is 12, each with 3^2
	// algorithm choices = 108.
	if len(plans) != 108 {
		t.Fatalf("bushy clique-3 plan count = %d want 108", len(plans))
	}
}

func TestBushyEnumerationSupersetOfLinear(t *testing.T) {
	q := gen(t, 4, 1)
	linear := AllPlans(q, partition.Linear, Options{})
	bushy := AllPlans(q, partition.Bushy, Options{})
	if len(bushy) <= len(linear) {
		t.Fatalf("bushy count %d should exceed linear %d", len(bushy), len(linear))
	}
	if BestCost(q, partition.Bushy, Options{}) > BestCost(q, partition.Linear, Options{})+1e-9 {
		t.Fatal("bushy optimum worse than linear optimum")
	}
}

func TestAllPlansAreValid(t *testing.T) {
	q := gen(t, 4, 2)
	m := cost.Default()
	for _, space := range []partition.Space{partition.Linear, partition.Bushy} {
		for _, orders := range []bool{false, true} {
			for _, p := range AllPlans(q, space, Options{InterestingOrders: orders}) {
				if err := p.Validate(q, m); err != nil {
					t.Fatalf("%v orders=%v: invalid plan %v: %v", space, orders, p, err)
				}
				if p.Tables != q.All() {
					t.Fatalf("plan does not join all tables: %v", p)
				}
			}
		}
	}
}

// Every enumerated plan carries the annotations Validate recomputes under
// the model it was built with — including a robust model, whose Buffer is
// the worst case over each set's high-endpoint cardinality, not the
// nominal one.
func TestAllPlansValidateUnderEveryModel(t *testing.T) {
	q := workload.MustGenerate(workload.NewParams(5, workload.Chain), 3)
	for _, m := range []cost.Model{cost.Default(), cost.Parametric(3), cost.Robust(2)} {
		for _, space := range []partition.Space{partition.Linear, partition.Bushy} {
			for _, p := range AllPlans(q, space, Options{Model: m}) {
				if err := p.Validate(q, m); err != nil {
					t.Fatalf("%v %v: invalid plan %v: %v", m.Second, space, p, err)
				}
			}
		}
	}
}

func TestFilter(t *testing.T) {
	q := gen(t, 3, 0)
	plans := AllPlans(q, partition.Linear, Options{})
	nlj := Filter(plans, func(p *plan.Node) bool { return p.Alg == cost.NestedLoop })
	if len(nlj) == 0 || len(nlj) >= len(plans) {
		t.Fatalf("filter returned %d of %d", len(nlj), len(plans))
	}
}

func TestRespectsConstraints(t *testing.T) {
	q := gen(t, 4, 3)
	cs, err := partition.ForPartition(partition.Linear, 4, 0, 2) // Q0 ≺ Q1
	if err != nil {
		t.Fatal(err)
	}
	plans := AllPlans(q, partition.Linear, Options{})
	seenOK, seenBad := false, false
	for _, p := range plans {
		order := p.JoinOrder()
		pos := map[int]int{}
		for i, tbl := range order {
			pos[tbl] = i
		}
		want := pos[0] < pos[1]
		if got := RespectsConstraints(p, cs); got != want {
			t.Fatalf("plan %v: RespectsConstraints=%v, join-order check=%v", p, got, want)
		}
		if want {
			seenOK = true
		} else {
			seenBad = true
		}
	}
	if !seenOK || !seenBad {
		t.Fatal("test did not exercise both outcomes")
	}
}

func TestBestCostPositive(t *testing.T) {
	q := gen(t, 4, 4)
	if c := BestCost(q, partition.Linear, Options{}); c <= 0 {
		t.Fatalf("BestCost = %g", c)
	}
}
