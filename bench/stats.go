package main

import (
	"math"
	"sort"
)

// percentileLadder is the set of percentiles a timing may be reported
// at. tailPercentile picks from it.
var percentileLadder = []float64{50, 75, 90, 95, 99, 99.9}

// tailPercentile returns the highest ladder percentile that leaves at
// least ten samples beyond it out of n, or 0 when even the median does
// not. A tail read from fewer samples is mostly noise.
func tailPercentile(n int) float64 {
	best := 0.0
	for _, p := range percentileLadder {
		if n-rank(p, n) >= 10 {
			best = p
		}
	}
	return best
}

// rank is the 1-based nearest rank of the p-th percentile among n
// sorted samples. The small slack keeps p·n/100 from rounding up past
// an exact integer (99.9% of 10000 is rank 9990).
func rank(p float64, n int) int {
	return int(math.Ceil(p*float64(n)/100 - 1e-9))
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// xs, which it does not modify. Empty input gives 0.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	return s[max(0, min(rank(p, len(s))-1, len(s)-1))]
}

// median is the midpoint of xs (the mean of the two middle values for
// even lengths).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the three cut points that split xs into quarters,
// computed exactly as Python's statistics.quantiles(xs, n=4) does with
// its default "exclusive" method, so the spread reported here is the
// one an outside checker computes from the same values. It needs at
// least two values; fewer give the single value (or 0) three times.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sortedCopy(xs)
	ld := len(s)
	switch ld {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	const n = 4
	m := ld + 1
	var q [n - 1]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		j = max(1, min(j, ld-1))
		delta := i*m - j*n
		q[i-1] = (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return q[0], q[1], q[2]
}

// relativeIQR is the distance between the first and third quartile as a
// share of the median: the run-to-run spread a bound is compared with.
func relativeIQR(xs []float64) float64 {
	q1, _, q3 := quartiles(xs)
	m := median(xs)
	if m == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(m)
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
