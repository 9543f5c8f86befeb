package dp

import (
	"math/rand"
	"testing"

	"mpq/internal/plan"
	"mpq/internal/query"
)

func vecPlan(time, buffer float64, order int) *plan.Node {
	return &plan.Node{Cost: time, Buffer: buffer, Order: order}
}

// alphaCovers reports whether q α-dominates p in both metrics.
func alphaCovers(q, p *plan.Node, alpha float64) bool {
	return q.Cost <= alpha*p.Cost && q.Buffer <= alpha*p.Buffer
}

func TestParetoKeepsIncomparable(t *testing.T) {
	pp := Pareto{Alpha: 1}
	var f Frontier
	if kept := offerTo(pp, &f, vecPlan(10, 1, query.NoOrder)); !kept {
		t.Fatal("first plan dropped")
	}
	if kept := offerTo(pp, &f, vecPlan(1, 10, query.NoOrder)); !kept || f.Len() != 2 {
		t.Fatal("incomparable plan dropped")
	}
	// Dominated candidate dropped.
	if kept := offerTo(pp, &f, vecPlan(11, 2, query.NoOrder)); kept || f.Len() != 2 {
		t.Fatal("dominated plan kept")
	}
	// Dominating candidate evicts.
	if kept := offerTo(pp, &f, vecPlan(0.5, 0.5, query.NoOrder)); !kept || f.Len() != 1 {
		t.Fatalf("dominating plan should evict all: %d plans", f.Len())
	}
}

func TestParetoAlphaCoarsens(t *testing.T) {
	exactP := Pareto{Alpha: 1}
	coarseP := Pareto{Alpha: 10}
	var exact, coarse Frontier
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 300; i++ {
		p := vecPlan(rng.Float64()*1000+1, rng.Float64()*1000+1, query.NoOrder)
		offerTo(exactP, &exact, p)
		offerTo(coarseP, &coarse, p)
	}
	if coarse.Len() > exact.Len() {
		t.Fatalf("alpha=10 retained %d > exact %d", coarse.Len(), exact.Len())
	}
	// Every exact-frontier plan must be alpha-covered by the coarse set.
	for _, e := range exact.Slice() {
		covered := false
		for _, c := range coarse.Slice() {
			if alphaCovers(c, e, 10) {
				covered = true
				break
			}
		}
		if !covered {
			t.Fatalf("plan (%g, %g) not 10-covered", e.Cost, e.Buffer)
		}
	}
}

func TestParetoOrderCompatibility(t *testing.T) {
	pp := Pareto{Alpha: 1}
	var f Frontier
	offerTo(pp, &f, vecPlan(5, 5, query.NoOrder))
	// Same vector but with an order: not dominated (order may help later).
	kept := offerTo(pp, &f, vecPlan(5, 5, 42))
	if !kept || f.Len() != 1 {
		// The ordered plan dominates the unordered one with equal cost:
		// it evicts it and takes its place.
		t.Fatalf("ordered plan insert: kept=%v len=%d", kept, f.Len())
	}
	if f.At(0).Order != 42 {
		t.Fatal("ordered plan should have replaced unordered equal-cost plan")
	}
	// Unordered plan with equal cost is dominated by the ordered one.
	if kept := offerTo(pp, &f, vecPlan(5, 5, query.NoOrder)); kept || f.Len() != 1 {
		t.Fatal("unordered equal-cost plan should be pruned")
	}
	// A different order with equal cost is incomparable.
	if kept := offerTo(pp, &f, vecPlan(5, 5, 43)); !kept || f.Len() != 2 {
		t.Fatal("differently-ordered plan should be retained")
	}
}

// Admission must be allocation-free: the DP calls it once per generated
// candidate, and the multi-objective frontier makes that loop cubic in
// the plans per table set (§5.4).
func TestParetoAdmitsAllocFree(t *testing.T) {
	pp := Pareto{Alpha: 2}
	f := FrontierOf(vecPlan(10, 1, query.NoOrder), vecPlan(1, 10, query.NoOrder))
	cand := Candidate{Cost: 50, Buffer: 50, Order: query.NoOrder}
	var sink bool
	if allocs := testing.AllocsPerRun(1000, func() { sink = pp.Admits(&f, cand) }); allocs != 0 {
		t.Errorf("Pareto.Admits allocates %.1f times per call", allocs)
	}
	_ = sink
}

// Insert through a frontier that stays within its two inline slots must
// not allocate either.
func TestParetoInsertInlineAllocFree(t *testing.T) {
	pp := Pareto{Alpha: 1}
	a := vecPlan(10, 1, query.NoOrder)
	b := vecPlan(1, 10, query.NoOrder)
	var f Frontier
	allocs := testing.AllocsPerRun(1000, func() {
		f = Frontier{}
		pp.Insert(&f, a)
		pp.Insert(&f, b)
	})
	if allocs != 0 {
		t.Errorf("inline Pareto.Insert allocates %.1f times per run", allocs)
	}
	_ = f
}
