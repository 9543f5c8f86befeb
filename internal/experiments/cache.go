package experiments

import (
	"context"
	"fmt"
	"sort"
	"time"

	"mpq/internal/cache"
	"mpq/internal/core"
	"mpq/internal/partition"
	"mpq/internal/query"
	"mpq/internal/workload"
)

// CacheRow is one measured (Zipf skew, cache budget) point of the plan-
// cache serving sweep: hit rate, per-request latency percentiles and
// throughput of a cached in-process engine serving a repeat stream,
// against the uncached engine on the identical stream.
type CacheRow struct {
	// Skew is the Zipf exponent of the arrival popularity.
	Skew float64
	// MaxBytes is the cache budget (0 = unlimited).
	MaxBytes int64
	// Distinct and Length describe the stream.
	Distinct int
	Length   int
	// HitRate is cache hits / arrivals.
	HitRate float64
	// Evictions counts entries removed to respect the budget.
	Evictions uint64
	// P50us / P99us are cached per-request latency percentiles (µs).
	P50us float64
	P99us float64
	// CachedQPS / UncachedQPS are optimizations per second over the
	// stream; Speedup is their ratio.
	CachedQPS   float64
	UncachedQPS float64
	Speedup     float64
}

// cacheScale returns the stream dimensions of the sweep.
func cacheScale(cfg Config) (tables, distinct, length int, budgets []int64) {
	if cfg.Full {
		return 12, 128, 4096, []int64{32 << 10, 128 << 10, 0}
	}
	return 10, 64, 1024, []int64{16 << 10, 64 << 10, 0}
}

// cacheSkews are the Zipf exponents swept: near-uniform repetition,
// the web-style s≈1.1 of the acceptance experiment, and heavy skew.
var cacheSkews = []float64{1.05, 1.1, 1.5}

// CacheServing sweeps Zipf skew × cache budget over a repeat stream of
// random queries and measures the fingerprint-keyed plan cache serving
// an in-process engine: hit rate, eviction pressure, p50/p99 serving
// latency, and throughput against the uncached engine on the identical
// stream. The uncached baseline is measured once per skew (the budget
// does not affect it).
//
// Within a (skew) group, answers of cached and uncached runs are
// bit-identical by the cache's construction; this sweep measures only
// the serving economics.
func CacheServing(cfg Config) ([]CacheRow, error) {
	n, distinct, length, budgets := cacheScale(cfg)
	spec := core.JobSpec{Space: partition.Linear, Workers: 4}
	compute := func(ctx context.Context, q *query.Query, spec core.JobSpec) (*core.Answer, error) {
		return core.OptimizeContext(ctx, q, spec)
	}

	var rows []CacheRow
	for _, skew := range cacheSkews {
		if err := cfg.canceled(); err != nil {
			return nil, err
		}
		stream, err := workload.GenerateStream(workload.StreamParams{
			Query:    workload.NewParams(n, workload.Star),
			Distinct: distinct,
			Length:   length,
			Skew:     skew,
		}, cfg.BaseSeed)
		if err != nil {
			return nil, err
		}

		// Uncached baseline: the same arrivals, every one a full DP.
		uncachedStart := time.Now()
		for i := 0; i < stream.Params.Length; i++ {
			if err := cfg.canceled(); err != nil {
				return nil, err
			}
			if _, err := compute(cfg.context(), stream.At(i), spec); err != nil {
				return nil, err
			}
		}
		uncachedQPS := float64(stream.Params.Length) / time.Since(uncachedStart).Seconds()
		cfg.progressf("cache: skew=%.2f uncached baseline done", skew)

		for _, budget := range budgets {
			if err := cfg.canceled(); err != nil {
				return nil, err
			}
			c := cache.New(cache.Config{MaxBytes: budget})
			lat := make([]float64, stream.Params.Length)
			cachedStart := time.Now()
			for i := 0; i < stream.Params.Length; i++ {
				reqStart := time.Now()
				if _, err := c.Optimize(cfg.context(), stream.At(i), spec, compute); err != nil {
					return nil, err
				}
				lat[i] = float64(time.Since(reqStart)) / float64(time.Microsecond)
			}
			elapsed := time.Since(cachedStart)
			cachedQPS := float64(stream.Params.Length) / elapsed.Seconds()
			t := c.Totals()
			rows = append(rows, CacheRow{
				Skew:        skew,
				MaxBytes:    budget,
				Distinct:    distinct,
				Length:      length,
				HitRate:     float64(t.Hits) / float64(stream.Params.Length),
				Evictions:   t.Evictions,
				P50us:       percentile(lat, 0.50),
				P99us:       percentile(lat, 0.99),
				CachedQPS:   cachedQPS,
				UncachedQPS: uncachedQPS,
				Speedup:     cachedQPS / uncachedQPS,
			})
			cfg.progressf("cache: skew=%.2f budget=%s done", skew, fmtBudget(budget))
		}
	}
	return rows, nil
}

// percentile returns the q-th latency percentile (xs sorted in place,
// nearest-rank on the sorted slice).
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(q * float64(len(xs)-1))
	return xs[i]
}

// fmtBudget renders a cache budget compactly.
func fmtBudget(b int64) string {
	if b == 0 {
		return "unlimited"
	}
	return fmt.Sprintf("%dKB", b>>10)
}

// CacheServingTable renders the cache serving sweep.
func CacheServingTable(rows []CacheRow) *Table {
	t := &Table{
		Title:   "Plan-cache serving — Zipf repeat stream, cached vs uncached in-process engine",
		Caption: "fingerprint-keyed cache with cost-weighted LRU; answers bit-identical to uncached runs",
		Columns: []string{"skew", "budget", "distinct", "arrivals", "hit rate", "evictions", "p50 (µs)", "p99 (µs)", "cached qps", "uncached qps", "speedup"},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%.2f", r.Skew),
			fmtBudget(r.MaxBytes),
			fmt.Sprintf("%d", r.Distinct),
			fmt.Sprintf("%d", r.Length),
			fmt.Sprintf("%.3f", r.HitRate),
			fmt.Sprintf("%d", r.Evictions),
			fmtFloat(r.P50us),
			fmtFloat(r.P99us),
			fmtFloat(r.CachedQPS),
			fmtFloat(r.UncachedQPS),
			fmt.Sprintf("%.1fx", r.Speedup),
		})
	}
	return t
}
