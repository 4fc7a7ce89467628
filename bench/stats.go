package main

import (
	"math"
	"sort"
)

// rank is the 1-based nearest rank of the p-th percentile among n
// samples.  The epsilon keeps p·n/100 from rounding up past an exact
// integer (99.9·10000/100 is not exact in binary).
func rank(p float64, n int) int {
	return min(max(int(math.Ceil(p*float64(n)/100-1e-9)), 1), n)
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// an ascending slice; NaN when it is empty.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	return sorted[rank(p, len(sorted))-1]
}

// sortedCopy returns xs in ascending order without touching xs.
func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

func median(xs []float64) float64 { return percentile(sortedCopy(xs), 50) }

// tailPercentiles are the percentiles a timing is reported at, highest
// first.
var tailPercentiles = []float64{99.9, 99, 90, 50}

// tail returns the highest reported percentile that has at least ten
// samples beyond it, its value, and the sample count.  A percentile with
// fewer samples beyond it would be one slow sample, not a tail.  ok is
// false with fewer than 20 samples, where even the median has fewer than
// ten above it.
func tail(xs []float64) (p, value float64, n int, ok bool) {
	n = len(xs)
	sorted := sortedCopy(xs)
	for _, p := range tailPercentiles {
		if n > 0 && n-rank(p, n) >= 10 {
			return p, percentile(sorted, p), n, true
		}
	}
	return 0, math.NaN(), n, false
}

// quartiles returns the three cut points of xs into four groups, as
// Python's statistics.quantiles(xs, n=4) computes them (the "exclusive"
// method), so spreads match the ones the driver computes.  It needs at
// least two values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sortedCopy(xs)
	m := len(s)
	if m == 1 {
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		j := min(max(i*(m+1)/4, 1), m-1)
		delta := i*(m+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the interquartile range as a share of the median.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(q2)
}

// histPercentile estimates the p-th percentile from a cumulative
// histogram (ascending upper bounds, cumulative counts at each bound, and
// the total count including the +Inf bucket), interpolating linearly
// inside the bucket that holds it.  Observations beyond the last finite
// bound report that bound.
func histPercentile(bounds []float64, cum []int64, count int64, p float64) float64 {
	if count == 0 {
		return 0
	}
	rank := p / 100 * float64(count)
	lo, below := 0.0, int64(0)
	for i, b := range bounds {
		if float64(cum[i]) >= rank {
			in := cum[i] - below
			if in == 0 {
				return b
			}
			return lo + (b-lo)*(rank-float64(below))/float64(in)
		}
		lo, below = b, cum[i]
	}
	return lo
}
