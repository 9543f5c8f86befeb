package pqo

import (
	"math"
	"testing"

	"mpq/internal/plan"
)

// TestBestExactTieKeepsEarliest pins Best's tie-break on a synthetic
// frontier whose two cost lines cross exactly at θ=0.5: CostAt there is
// 1.0 for both plans, representable exactly, so the comparison is a
// true tie and Best must keep the earlier frontier plan.
func TestBestExactTieKeepsEarliest(t *testing.T) {
	p0 := &plan.Node{Cost: 0, Buffer: 2}
	p1 := &plan.Node{Cost: 1, Buffer: 1}
	frontier := []*plan.Node{p0, p1}

	cases := []struct {
		theta float64
		want  *plan.Node
	}{
		{0, p0},                      // left endpoint: p0 strictly cheaper
		{0.5, p0},                    // exact crossing: tie → earliest plan
		{math.Nextafter(0.5, 1), p0}, // one ulp above: still inside the 1e-12 band
		{math.Nextafter(0.5, 0), p0}, // one ulp below: p0 strictly cheaper
		{1, p1},                      // right endpoint: p1 strictly cheaper
	}
	for _, tc := range cases {
		got, err := Best(frontier, tc.theta)
		if err != nil {
			t.Fatalf("Best(θ=%v): %v", tc.theta, err)
		}
		if got != tc.want {
			t.Errorf("Best(θ=%.20g) = plan with cost line (%g,%g), want (%g,%g)",
				tc.theta, got.Cost, got.Buffer, tc.want.Cost, tc.want.Buffer)
		}
	}
}
