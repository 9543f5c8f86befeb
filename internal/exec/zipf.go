package exec

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"mpq/internal/catalog"
)

// MeasuredSelectivity returns the fraction of the cross product of
// tables a and b that an equality predicate between attribute ai of a
// and attribute bi of b retains, measured on the materialized rows —
// the ground truth the catalog's uniform-independence estimate
// approximates. Returns 0 when no rows match; fails on out-of-range
// table or attribute indices or empty tables.
func (db *DB) MeasuredSelectivity(a, ai, b, bi int) (float64, error) {
	if a < 0 || a >= len(db.tables) || b < 0 || b >= len(db.tables) {
		return 0, fmt.Errorf("exec: table index out of range (%d, %d)", a, b)
	}
	ra, rb := db.tables[a], db.tables[b]
	if len(ra) == 0 || len(rb) == 0 {
		return 0, fmt.Errorf("exec: measuring selectivity over empty table")
	}
	if ai < 0 || ai >= len(ra[0]) || bi < 0 || bi >= len(rb[0]) {
		return 0, fmt.Errorf("exec: attribute index out of range (%d, %d)", ai, bi)
	}
	freq := make(map[int64]int64, len(ra))
	for _, row := range ra {
		freq[row[ai]]++
	}
	var matches int64
	for _, row := range rb {
		matches += freq[row[bi]]
	}
	return float64(matches) / (float64(len(ra)) * float64(len(rb))), nil
}

// GenerateZipf materializes synthetic data like Generate, but with
// Zipf-skewed attribute values: value v of a domain of size d is drawn
// with probability proportional to 1/(v+1)^skew. Skew 0 is exactly
// Generate — same RNG consumption, byte-identical tables — so callers
// can thread a skew parameter through unconditionally. Larger skew
// concentrates rows on few values, which makes measured join
// selectivities diverge from the catalog's uniform-independence
// estimate; the regret experiment uses that divergence as a source of
// realistic estimation error.
//
// The generator hand-rolls inverse-CDF sampling rather than using
// rand.Zipf because the stdlib sampler requires skew > 1, and mild
// skews in (0, 1] are exactly the interesting regime here.
func GenerateZipf(cat *catalog.Catalog, seed int64, lim Limits, skew float64) (*DB, error) {
	if math.IsNaN(skew) || math.IsInf(skew, 0) || skew < 0 {
		return nil, fmt.Errorf("exec: zipf skew must be finite and non-negative, got %v", skew)
	}
	if skew == 0 {
		return Generate(cat, seed, lim)
	}
	db := &DB{}
	rng := rand.New(rand.NewSource(seed))
	cdfs := map[int64][]float64{} // domain size -> cumulative weights
	cdf := func(domain int64) []float64 {
		if c, ok := cdfs[domain]; ok {
			return c
		}
		c := make([]float64, domain)
		sum := 0.0
		for v := int64(0); v < domain; v++ {
			sum += math.Pow(float64(v+1), -skew)
			c[v] = sum
		}
		cdfs[domain] = c
		return c
	}
	for t := 0; t < cat.Len(); t++ {
		tbl := cat.Table(t)
		n := int(tbl.Cardinality + 0.5)
		if n > lim.maxRows() {
			return nil, fmt.Errorf("exec: table %q has %d rows, limit %d", tbl.Name, n, lim.maxRows())
		}
		if len(tbl.Attributes) > db.attrs {
			db.attrs = len(tbl.Attributes)
		}
		rows := make([][]int64, n)
		for i := range rows {
			row := make([]int64, len(tbl.Attributes))
			for a, attr := range tbl.Attributes {
				c := cdf(attr.Domain)
				u := rng.Float64() * c[len(c)-1]
				row[a] = int64(sort.SearchFloat64s(c, u))
				if row[a] >= attr.Domain { // u == total, a measure-zero edge
					row[a] = attr.Domain - 1
				}
			}
			rows[i] = row
		}
		db.tables = append(db.tables, rows)
	}
	return db, nil
}
