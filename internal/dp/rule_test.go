package dp

import (
	"math/rand"
	"testing"

	"mpq/internal/cost"
	"mpq/internal/partition"
	"mpq/internal/plan"
	"mpq/internal/query"
	"mpq/internal/workload"
)

func vecRecord(c, second float64, order int) record {
	return record{cost: c, second: second, order: order}
}

// ruleWorker returns a worker with no records, applying Pareto with the
// given factor — or the order-aware rule, for α = 1 and zero second
// metrics.
func ruleWorker(alpha float64) *worker {
	return &worker{alpha: alpha, recs: new([]record), keys: new([]key)}
}

// setRecs makes recs the worker's records, and their keys its keys.
func setRecs(w *worker, recs ...record) {
	*w.recs, *w.keys = recs, nil
	for _, r := range recs {
		*w.keys = append(*w.keys, key{r.cost, r.second})
	}
}

// offerTo offers a candidate with these scalars the way offer does under
// the order-aware rule and Pareto and reports whether it was kept.
func offerTo(w *worker, c, second float64, order int) bool {
	if !w.admits(c, second, order) {
		return false
	}
	*w.keep(c, second, order) = vecRecord(c, second, order)
	if err := keysMirrorRecs(w); err != nil {
		panic(err)
	}
	return true
}

// alphaCovers reports whether q α-dominates p in both metrics.
func alphaCovers(q, p record, alpha float64) bool {
	return q.cost <= alpha*p.cost && q.second <= alpha*p.second
}

func TestParetoKeepsIncomparable(t *testing.T) {
	w := ruleWorker(1)
	if kept := offerTo(w, 10, 1, query.NoOrder); !kept {
		t.Fatal("first plan dropped")
	}
	if kept := offerTo(w, 1, 10, query.NoOrder); !kept || len(*w.recs) != 2 {
		t.Fatal("incomparable plan dropped")
	}
	// Dominated candidate dropped.
	if kept := offerTo(w, 11, 2, query.NoOrder); kept || len(*w.recs) != 2 {
		t.Fatal("dominated plan kept")
	}
	// Dominating candidate evicts.
	if kept := offerTo(w, 0.5, 0.5, query.NoOrder); !kept || len(*w.recs) != 1 {
		t.Fatalf("dominating plan should evict all: %d plans", len(*w.recs))
	}
}

func TestParetoAlphaCoarsens(t *testing.T) {
	exact, coarse := ruleWorker(1), ruleWorker(10)
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 300; i++ {
		c, second := rng.Float64()*1000+1, rng.Float64()*1000+1
		offerTo(exact, c, second, query.NoOrder)
		offerTo(coarse, c, second, query.NoOrder)
	}
	if len(*coarse.recs) > len(*exact.recs) {
		t.Fatalf("alpha=10 retained %d > exact %d", len(*coarse.recs), len(*exact.recs))
	}
	// Every exact-frontier plan must be alpha-covered by the coarse set.
	for _, e := range *exact.recs {
		covered := false
		for _, c := range *coarse.recs {
			if alphaCovers(c, e, 10) {
				covered = true
				break
			}
		}
		if !covered {
			t.Fatalf("plan (%g, %g) not 10-covered", e.cost, e.second)
		}
	}
}

func TestParetoOrderCompatibility(t *testing.T) {
	w := ruleWorker(1)
	offerTo(w, 5, 5, query.NoOrder)
	// Same vector but with an order: not dominated (order may help later).
	kept := offerTo(w, 5, 5, 42)
	if !kept || len(*w.recs) != 1 {
		// The ordered plan dominates the unordered one with equal cost:
		// it evicts it and takes its place.
		t.Fatalf("ordered plan insert: kept=%v len=%d", kept, len(*w.recs))
	}
	if (*w.recs)[0].order != 42 {
		t.Fatal("ordered plan should have replaced unordered equal-cost plan")
	}
	// Unordered plan with equal cost is dominated by the ordered one.
	if kept := offerTo(w, 5, 5, query.NoOrder); kept || len(*w.recs) != 1 {
		t.Fatal("unordered equal-cost plan should be pruned")
	}
	// A different order with equal cost is incomparable.
	if kept := offerTo(w, 5, 5, 43); !kept || len(*w.recs) != 2 {
		t.Fatal("differently-ordered plan should be retained")
	}
}

// Admission must be allocation-free: the DP calls it once per generated
// candidate, and the multi-objective frontier makes that loop cubic in
// the plans per table set (§5.4).
func TestParetoAdmitsAllocFree(t *testing.T) {
	w := ruleWorker(2)
	setRecs(w, vecRecord(10, 1, query.NoOrder), vecRecord(1, 10, query.NoOrder))
	var sink bool
	if allocs := testing.AllocsPerRun(1000, func() { sink = w.admits(50, 50, query.NoOrder) }); allocs != 0 {
		t.Errorf("Pareto admission allocates %.1f times per call", allocs)
	}
	if allocs := testing.AllocsPerRun(1000, func() { sink = w.dominated(50, 50) }); allocs != 0 {
		t.Errorf("Pareto admission without orders allocates %.1f times per call", allocs)
	}
	_ = sink
}

// Keeping a record — Pareto's insert — allocates nothing once the
// records have the capacity: the slice is the runtime's, recycled from
// set to set.
func TestParetoInsertInlineAllocFree(t *testing.T) {
	w := ruleWorker(1)
	*w.recs, *w.keys = make([]record, 0, 2), make([]key, 0, 2)
	allocs := testing.AllocsPerRun(1000, func() {
		*w.recs, *w.keys = (*w.recs)[:0], (*w.keys)[:0]
		*w.keep(10, 1, query.NoOrder) = vecRecord(10, 1, query.NoOrder)
		*w.keep(1, 10, query.NoOrder) = vecRecord(1, 10, query.NoOrder)
	})
	if allocs != 0 || len(*w.recs) != 2 {
		t.Errorf("keeping two incomparable records allocates %.1f times per run, keeps %d", allocs, len(*w.recs))
	}
}

// The order-aware rule's admission — Pareto's at α = 1 with zero second
// metrics — is allocation-free too, and so is SingleBest's, which offer
// applies to its one record.
func TestAdmitsAllocFree(t *testing.T) {
	w := ruleWorker(1)
	setRecs(w, vecRecord(10, 0, query.NoOrder), vecRecord(12, 0, 3))
	var sink bool
	if allocs := testing.AllocsPerRun(1000, func() { sink = w.admits(11, 0, 3) }); allocs != 0 {
		t.Errorf("order-aware admission allocates %.1f times per call", allocs)
	}
	single := &worker{single: true}
	lp, rp := &plan.Node{Cost: 1}, &plan.Node{Cost: 2}
	if allocs := testing.AllocsPerRun(1000, func() {
		single.offer(lp, rp, cost.Hash, plan.NoPred, query.NoOrder, false, false, 3)
	}); allocs != 0 {
		t.Errorf("SingleBest's offer allocates %.1f times per call", allocs)
	}
	_ = sink
}

// NewEngine resolves a rule and its factor in one call, so a *Pareto —
// whose method set holds Pareto's — runs with its own α, not 1.
func TestPointerParetoKeepsAlpha(t *testing.T) {
	q := boundQuery(4, workload.Chain, 1, false)
	for _, pr := range []Pruner{Pareto{Alpha: 10}, &Pareto{Alpha: 10}} {
		eng, err := NewEngine(q, partition.Unconstrained(partition.Linear, q.N()), Options{Pruner: pr})
		if err != nil {
			t.Fatal(err)
		}
		if eng.w.rule != rulePareto || eng.w.alpha != 10 {
			t.Errorf("%#v: rule %d, α %g; want Pareto, 10", pr, eng.w.rule, eng.w.alpha)
		}
	}
}
