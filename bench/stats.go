package main

import (
	"math"
	"sort"
)

// percentile returns the p-th percentile (0 < p < 100) of sorted by the
// nearest-rank rule; 0 for an empty sample.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[max(rank(p, len(sorted)), 1)-1]
}

// rank is ⌈p·n/100⌉, computed so that 99.9 % of 10000 is 9990 and not,
// by a rounding error, 9991.
func rank(p float64, n int) int {
	return int(math.Ceil(p*float64(n)/100 - 1e-9))
}

// tailPercentiles are the tail percentiles the reports choose from.
var tailPercentiles = []float64{90, 99, 99.9}

// highestPercentile returns the highest of tailPercentiles that still
// has at least ten of n samples beyond it, or 50 when none has: a
// percentile with fewer samples above it is set by a handful of
// outliers and does not repeat.
func highestPercentile(n int) float64 {
	best := 50.0
	for _, p := range tailPercentiles {
		if n-rank(p, n) >= 10 {
			best = p
		}
	}
	return best
}

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// median of an unsorted sample; 0 when empty.
func median(v []float64) float64 {
	s := sortedCopy(v)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(v, n=4) does (exclusive method), so a spread
// computed here equals the one the acceptance check computes.
func quartiles(v []float64) (q1, q3 float64) {
	s := sortedCopy(v)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	at := func(i int) float64 { // i-th of 3 cut points
		pos := i * (n + 1)
		j := min(max(pos/4, 1), n-1)
		delta := pos - j*4 // beyond [0,4] when clamped: extrapolates, as Python does
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// spread is the interquartile distance as a share of the median; 0 for
// fewer than two values or a zero median.
func spread(v []float64) float64 {
	m := median(v)
	if len(v) < 2 || m == 0 {
		return 0
	}
	q1, q3 := quartiles(v)
	return (q3 - q1) / math.Abs(m)
}
