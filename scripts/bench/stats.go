package main

import (
	"math"
	"sort"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// xs, or 0 for an empty sample. xs is not modified.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// median is the midpoint median (mean of the two central values for an
// even count), the statistic every timing in the record is reported as.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// tailCandidates are the percentiles a timing may be reported at, lowest
// first.
var tailCandidates = []float64{50, 75, 90, 95, 99, 99.9}

// tailMinBeyond is how many samples must lie beyond a percentile for it to
// be reported.
const tailMinBeyond = 10

// highestPercentile applies the reporting rule "the highest percentile
// with at least ten samples beyond it" to a sample count. ok is false when
// not even the median qualifies (fewer than 20 samples): such a workload
// reports its median and throughput only.
func highestPercentile(n int) (p float64, ok bool) {
	for _, c := range tailCandidates {
		if float64(n)*(100-c)/100 >= tailMinBeyond-1e-9 {
			p, ok = c, true
		}
	}
	return p, ok
}

// spread is the distance between the smallest and largest value as a share
// of the median — how far repeated sets of one build disagree.
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	lo, hi := xs[0], xs[0]
	for _, x := range xs[1:] {
		lo = math.Min(lo, x)
		hi = math.Max(hi, x)
	}
	m := median(xs)
	if m == 0 {
		return 0
	}
	return (hi - lo) / math.Abs(m)
}
