package mo

import (
	"math/rand"
	"sort"
	"testing"

	"mpq/internal/cost"
	"mpq/internal/plan"
	"mpq/internal/query"
)

func vecPlan(time, buffer float64, order int) *plan.Node {
	return &plan.Node{Cost: time, Buffer: buffer, Order: order}
}

func TestVectorDominance(t *testing.T) {
	a := Vector{Time: 1, Buffer: 1}
	b := Vector{Time: 2, Buffer: 2}
	c := Vector{Time: 1, Buffer: 3}
	if !a.Dominates(b) || b.Dominates(a) {
		t.Fatal("basic dominance")
	}
	if !a.Dominates(a) {
		t.Fatal("weak dominance must be reflexive")
	}
	if a.Dominates(c) && c.Dominates(a) {
		t.Fatal("incomparable vectors both dominate")
	}
	if c.Dominates(b) || b.Dominates(c) {
		t.Fatal("incomparable vectors should not dominate")
	}
}

func TestAlphaDominance(t *testing.T) {
	a := Vector{Time: 10, Buffer: 10}
	b := Vector{Time: 6, Buffer: 6}
	if a.AlphaDominates(b, 1) {
		t.Fatal("worse vector cannot 1-dominate")
	}
	if !a.AlphaDominates(b, 2) {
		t.Fatal("10 <= 2*6 should alpha-dominate")
	}
	if !b.AlphaDominates(a, 1) {
		t.Fatal("better vector dominates at alpha=1")
	}
}

func TestVectorString(t *testing.T) {
	if got := (Vector{Time: 1, Buffer: 2}).String(); got != "(time=1, buffer=2)" {
		t.Fatalf("String = %q", got)
	}
}

func TestMergeProducesSortedFrontier(t *testing.T) {
	f1 := []*plan.Node{vecPlan(10, 1, query.NoOrder), vecPlan(1, 10, query.NoOrder)}
	f2 := []*plan.Node{vecPlan(5, 5, query.NoOrder), vecPlan(20, 20, query.NoOrder)}
	merged := Merge([][]*plan.Node{f1, f2}, 1)
	if len(merged) != 3 {
		t.Fatalf("merged size = %d want 3 (20,20 dominated)", len(merged))
	}
	if !sort.SliceIsSorted(merged, func(i, j int) bool { return merged[i].Cost < merged[j].Cost }) {
		t.Fatal("merged frontier not sorted by time")
	}
	if !IsFrontier(merged) {
		t.Fatal("merged result is not a frontier")
	}
}

func TestMergeAlphaBelowOneClamped(t *testing.T) {
	f := []*plan.Node{vecPlan(1, 1, query.NoOrder)}
	if got := Merge([][]*plan.Node{f}, 0); len(got) != 1 {
		t.Fatal("alpha=0 should clamp to 1")
	}
}

func TestExactFrontier(t *testing.T) {
	plans := []*plan.Node{
		vecPlan(1, 10, query.NoOrder),
		vecPlan(10, 1, query.NoOrder),
		vecPlan(5, 5, query.NoOrder),
		vecPlan(6, 6, query.NoOrder), // dominated by (5,5)
		vecPlan(1, 10, 3),            // duplicate vector, order ignored at root
	}
	f := ExactFrontier(plans)
	if len(f) != 3 {
		t.Fatalf("frontier size = %d want 3: %v", len(f), f)
	}
	if !IsFrontier(f) {
		t.Fatal("not a frontier")
	}
}

func TestIsFrontier(t *testing.T) {
	if !IsFrontier(nil) {
		t.Fatal("empty set is a frontier")
	}
	if !IsFrontier([]*plan.Node{vecPlan(1, 2, 0), vecPlan(2, 1, 0)}) {
		t.Fatal("incomparable pair rejected")
	}
	if IsFrontier([]*plan.Node{vecPlan(1, 1, 0), vecPlan(2, 2, 0)}) {
		t.Fatal("dominated pair accepted")
	}
	if IsFrontier([]*plan.Node{vecPlan(1, 1, 0), vecPlan(1, 1, 0)}) {
		t.Fatal("duplicate vectors accepted")
	}
}

func TestCoverageError(t *testing.T) {
	exact := []*plan.Node{vecPlan(10, 10, 0)}
	if got := CoverageError(exact, exact); got != 1 {
		t.Fatalf("self coverage = %g", got)
	}
	approx := []*plan.Node{vecPlan(20, 10, 0)}
	if got := CoverageError(approx, exact); got != 2 {
		t.Fatalf("coverage error = %g want 2", got)
	}
	// Best cover among several approximations is used.
	approx2 := []*plan.Node{vecPlan(20, 10, 0), vecPlan(11, 10, 0)}
	if got := CoverageError(approx2, exact); got != 1.1 {
		t.Fatalf("coverage error = %g want 1.1", got)
	}
}

// Property: whatever the sequence of plans, Merge's Pareto rule returns
// a frontier (no mutual dominance) that α-covers every plan offered.
func TestQuickPrunerFrontierInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 50; trial++ {
		alpha := 1 + rng.Float64()*4
		var inserted []*plan.Node
		for i := 0; i < 200; i++ {
			inserted = append(inserted, vecPlan(rng.Float64()*100+1, rng.Float64()*100+1, query.NoOrder))
		}
		plans := Merge([][]*plan.Node{inserted[:100], inserted[100:]}, alpha)
		if !IsFrontier(plans) {
			t.Fatalf("alpha=%g: retained set is not a frontier", alpha)
		}
		for _, p := range inserted {
			covered := false
			for _, q := range plans {
				if VecOf(q).AlphaDominates(VecOf(p), alpha) {
					covered = true
					break
				}
			}
			if !covered {
				t.Fatalf("alpha=%g: inserted plan %v not covered", alpha, VecOf(p))
			}
		}
	}
}

func TestVecOf(t *testing.T) {
	q := query.MustNew([]query.Table{{Cardinality: 10}})
	p := plan.Scan(cost.Default(), q, 0)
	v := VecOf(p)
	if v.Time != p.Cost || v.Buffer != p.Buffer {
		t.Fatal("VecOf mismatch")
	}
}
