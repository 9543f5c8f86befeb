package experiments

import (
	"math"
	"testing"
)

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if got := percentile(xs, 0.50); got != 3 {
		t.Fatalf("p50 = %g", got)
	}
	if got := percentile(xs, 1.0); got != 5 {
		t.Fatalf("p100 = %g", got)
	}
	if got := percentile(xs, 0.0); got != 1 {
		t.Fatalf("p0 = %g", got)
	}
	if percentile(nil, 0.5) != 0 {
		t.Fatal("empty percentile")
	}
}

func TestFmtBudget(t *testing.T) {
	if fmtBudget(0) != "unlimited" {
		t.Fatal("unlimited budget")
	}
	if fmtBudget(16<<10) != "16KB" {
		t.Fatal("16KB budget")
	}
}

// TestCacheServingSweep runs the quick-scale sweep end to end: one row
// per (skew, budget) pair, sane rates, no evictions without a budget,
// eviction pressure with one, and a clear win at the acceptance point
// (skew ≥ 1.1, unlimited) — in counted work, not seconds: at most one
// DP run per distinct query, so at least 90 % of the runs avoided.
func TestCacheServingSweep(t *testing.T) {
	figureScale(t)
	cfg := tiny()
	rows, err := CacheServing(cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, _, _, budgets := cacheScale(cfg)
	if len(rows) != len(cacheSkews)*len(budgets) {
		t.Fatalf("%d rows, want %d", len(rows), len(cacheSkews)*len(budgets))
	}
	for _, r := range rows {
		if r.HitRate < 0 || r.HitRate > 1 {
			t.Fatalf("hit rate %g out of range", r.HitRate)
		}
		if r.P50us <= 0 || r.P99us < r.P50us {
			t.Fatalf("latency percentiles p50=%g p99=%g", r.P50us, r.P99us)
		}
		if r.MaxBytes == 0 && r.Evictions != 0 {
			t.Fatalf("unlimited budget evicted %d entries", r.Evictions)
		}
		if r.MaxBytes == 0 && r.Skew >= 1.1 {
			// The sweep is single-flight, so every arrival is a hit or a miss.
			hits := int(math.Round(r.HitRate * float64(r.Length)))
			if misses := r.Length - hits; misses > r.Distinct {
				t.Fatalf("skew=%.2f unlimited: %d misses for %d distinct queries", r.Skew, misses, r.Distinct)
			}
			if hits*10 < r.Length*9 {
				t.Fatalf("skew=%.2f unlimited: only %d of %d DP runs avoided, want >= 90%%", r.Skew, hits, r.Length)
			}
			t.Logf("skew=%.2f unlimited: hit rate %.3f, speedup %.1fx", r.Skew, r.HitRate, r.Speedup)
		}
	}
	tbl := CacheServingTable(rows)
	if len(tbl.Rows) != len(rows) || len(tbl.Columns) != 11 {
		t.Fatalf("table shape: %d rows, %d cols", len(tbl.Rows), len(tbl.Columns))
	}
}
