// Package stats provides the descriptive statistics used throughout the
// burstiness-modeling pipeline: moments, percentiles, autocorrelation,
// histograms, and least-squares regression.
//
// All functions operate on float64 slices and are deterministic. Functions
// that require a minimum sample size document it and return an error (or a
// NaN where an error would be unidiomatic for a pure descriptor).
package stats

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"sort"
)

// ErrEmpty is returned by descriptors that require at least one sample.
var ErrEmpty = errors.New("stats: empty sample")

// ErrShort is returned when a sample is too short for the requested
// statistic (e.g., variance of a single point, lag beyond series length).
var ErrShort = errors.New("stats: sample too short")

// Mean returns the arithmetic mean of xs. It returns NaN for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Sum returns the sum of xs.
func Sum(xs []float64) float64 {
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum
}

// Variance returns the unbiased (n-1 denominator) sample variance of xs.
// It returns NaN if len(xs) < 2.
func Variance(xs []float64) float64 {
	if len(xs) < 2 {
		return math.NaN()
	}
	m := Mean(xs)
	ss := 0.0
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return ss / float64(len(xs)-1)
}

// PopVariance returns the population (n denominator) variance of xs.
// It returns NaN for an empty slice.
func PopVariance(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	m := Mean(xs)
	ss := 0.0
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return ss / float64(len(xs))
}

// StdDev returns the unbiased sample standard deviation of xs.
func StdDev(xs []float64) float64 {
	return math.Sqrt(Variance(xs))
}

// SCV returns the squared coefficient of variation Var/Mean^2 of xs,
// the standard dimensionless variability index used by the paper.
// It returns NaN if the mean is zero or the sample is too short.
func SCV(xs []float64) float64 {
	m := Mean(xs)
	if m == 0 || math.IsNaN(m) {
		return math.NaN()
	}
	return Variance(xs) / (m * m)
}

// Skewness returns the sample skewness (third standardized moment,
// bias-uncorrected) of xs. It returns NaN if len(xs) < 3 or the variance
// is zero.
func Skewness(xs []float64) float64 {
	if len(xs) < 3 {
		return math.NaN()
	}
	m := Mean(xs)
	n := float64(len(xs))
	m2, m3 := 0.0, 0.0
	for _, x := range xs {
		d := x - m
		m2 += d * d
		m3 += d * d * d
	}
	m2 /= n
	m3 /= n
	if m2 <= 0 {
		return math.NaN()
	}
	return m3 / math.Pow(m2, 1.5)
}

// RawMoment returns the k-th raw moment E[X^k] of xs.
func RawMoment(xs []float64, k int) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		sum += math.Pow(x, float64(k))
	}
	return sum / float64(len(xs))
}

// Percentile returns the p-th percentile (0 < p <= 100) of xs using linear
// interpolation between closest ranks (the same convention as common
// spreadsheet/statistics packages: R type-7). xs is not modified.
//
// It selects the two ranks it needs instead of sorting: a quickselect
// puts the lower rank in place, and the upper one is the least value
// above it. The result equals interpolating over sort.Float64s's order
// bit for bit. Equal values share their bits except zeros (±0) and
// NaNs (payloads), whose order among themselves only the sort fixes, so
// when a selected rank holds either, Percentile sorts a fresh copy.
func Percentile(xs []float64, p float64) (float64, error) {
	if len(xs) == 1 && p > 0 && p <= 100 {
		return xs[0], nil
	}
	return PercentileOf(len(xs), func(dst []float64) { copy(dst, xs) }, p)
}

// PercentileOf is Percentile of n values that are not held in one
// slice: fill writes them, in order, into the one scratch slice the
// selection permutes. It calls fill once, and again when a selected rank
// holds ±0 or NaN and the sort needs the original order.
func PercentileOf(n int, fill func(dst []float64), p float64) (float64, error) {
	if n == 0 {
		return 0, ErrEmpty
	}
	if p <= 0 || p > 100 {
		return 0, fmt.Errorf("stats: percentile %v out of range (0,100]", p)
	}
	h := (p / 100) * float64(n-1)
	lo := int(math.Floor(h))
	hi := int(math.Ceil(h))
	buf := make([]float64, n)
	fill(buf)
	selectRank(buf, lo)
	a, b := buf[lo], buf[lo]
	if hi != lo {
		b = buf[lo+1]
		for _, v := range buf[lo+2:] {
			if sortLess(v, b) {
				b = v
			}
		}
	}
	if a == 0 || b == 0 || a != a || b != b {
		fill(buf)
		sort.Float64s(buf)
		a, b = buf[lo], buf[hi]
	}
	if lo == hi {
		return a, nil
	}
	frac := h - float64(lo)
	return a*(1-frac) + b*frac, nil
}

// sortLess is sort.Float64s's order: NaNs first, then ascending.
func sortLess(a, b float64) bool {
	return a < b || (a != a && b == b)
}

// selectRank permutes xs so that xs[k] holds the k-th smallest value in
// sortLess order, with no greater value before it and no smaller one
// after. Each round splits the live range three ways around a
// median-of-three pivot, so runs of ties cost one pass; a range that
// survives 2*log2(n) rounds is sorted instead.
func selectRank(xs []float64, k int) {
	lo, hi := 0, len(xs) // live range [lo, hi) contains k
	for budget := 2 * bits.Len(uint(len(xs))); hi-lo > 1; budget-- {
		if budget == 0 {
			sort.Float64s(xs[lo:hi])
			return
		}
		a, b, c := xs[lo], xs[lo+(hi-lo)/2], xs[hi-1]
		if sortLess(b, a) {
			a, b = b, a
		}
		if sortLess(c, b) {
			b = c
			if sortLess(b, a) {
				b = a
			}
		}
		pivot := b
		// Three-way partition: [lo, lt) < pivot, [lt, i) == pivot,
		// [gt, hi) > pivot.
		lt, i, gt := lo, lo, hi
		for i < gt {
			switch v := xs[i]; {
			case sortLess(v, pivot):
				xs[lt], xs[i] = v, xs[lt]
				lt++
				i++
			case sortLess(pivot, v):
				gt--
				xs[i], xs[gt] = xs[gt], v
			default:
				i++
			}
		}
		switch {
		case k < lt:
			hi = lt
		case k >= gt:
			lo = gt
		default:
			return
		}
	}
}

// Median returns the 50th percentile of xs.
func Median(xs []float64) (float64, error) {
	return Percentile(xs, 50)
}

// Autocorrelation returns the lag-k sample autocorrelation coefficient of
// the series xs, using the standard biased estimator
//
//	rho_k = sum_{t=1}^{n-k} (x_t - m)(x_{t+k} - m) / sum_{t=1}^{n} (x_t - m)^2.
//
// It returns an error if k < 1 or k >= len(xs), and NaN if the series has
// zero variance.
func Autocorrelation(xs []float64, k int) (float64, error) {
	n := len(xs)
	if k < 1 {
		return 0, fmt.Errorf("stats: lag %d must be >= 1", k)
	}
	if k >= n {
		return 0, ErrShort
	}
	m := Mean(xs)
	den := 0.0
	for _, x := range xs {
		d := x - m
		den += d * d
	}
	if den == 0 {
		return math.NaN(), nil
	}
	num := 0.0
	for t := 0; t+k < n; t++ {
		num += (xs[t] - m) * (xs[t+k] - m)
	}
	return num / den, nil
}

// ACF returns autocorrelation coefficients for lags 1..maxLag.
// result[i] holds the lag-(i+1) coefficient.
func ACF(xs []float64, maxLag int) ([]float64, error) {
	if maxLag < 1 {
		return nil, fmt.Errorf("stats: maxLag %d must be >= 1", maxLag)
	}
	if maxLag >= len(xs) {
		return nil, ErrShort
	}
	n := len(xs)
	m := Mean(xs)
	den := 0.0
	centered := make([]float64, n)
	for i, x := range xs {
		centered[i] = x - m
		den += centered[i] * centered[i]
	}
	out := make([]float64, maxLag)
	if den == 0 {
		for i := range out {
			out[i] = math.NaN()
		}
		return out, nil
	}
	for k := 1; k <= maxLag; k++ {
		num := 0.0
		for t := 0; t+k < n; t++ {
			num += centered[t] * centered[t+k]
		}
		out[k-1] = num / den
	}
	return out, nil
}

// MinMax returns the minimum and maximum of xs. It returns NaNs for an
// empty slice.
func MinMax(xs []float64) (lo, hi float64) {
	if len(xs) == 0 {
		return math.NaN(), math.NaN()
	}
	lo, hi = xs[0], xs[0]
	for _, x := range xs[1:] {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	return lo, hi
}
