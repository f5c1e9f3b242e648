package main

import (
	"math"
	"sort"
)

// median returns the middle of xs (the mean of the two middle values for
// an even count), or 0 for no samples. xs is not modified.
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

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// minTail is the number of samples that must lie beyond a reported tail
// percentile for it to mean anything.
const minTail = 10

// tailPercentile returns the highest percentile, capped at 99, that has
// at least minTail samples beyond it, and its nearest-rank value. With n
// samples that is p = 100*(n-minTail)/n: 1010 samples give the p99,
// 64 give the p84.4. With 2*minTail samples or fewer no percentile above
// the median qualifies, and the median is returned as the p50.
func tailPercentile(xs []float64) (p, v float64) {
	n := len(xs)
	if n == 0 {
		return 0, 0
	}
	p = math.Min(99, 100*float64(n-minTail)/float64(n))
	if p <= 50 {
		return 50, median(xs)
	}
	return p, percentile(xs, p)
}

// percentile returns the nearest-rank p-th percentile of xs: the smallest
// sample with at least p% of the samples at or below it, or 0 for no
// samples. xs is not modified.
func percentile(xs []float64, p float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	// The guard keeps an exact p*n/100 from rounding up to the next rank.
	rank := int(math.Ceil(p*float64(n)/100 - 1e-9))
	rank = max(1, min(n, rank))
	return sortedCopy(xs)[rank-1]
}
