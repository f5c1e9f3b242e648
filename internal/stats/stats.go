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
func Percentile(xs []float64, p float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	if p <= 0 || p > 100 {
		return 0, fmt.Errorf("stats: percentile %v out of range (0,100]", p)
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	return percentileSorted(sorted, p), nil
}

func percentileSorted(sorted []float64, p float64) float64 {
	if len(sorted) == 1 {
		return sorted[0]
	}
	h := (p / 100) * float64(len(sorted)-1)
	lo := int(math.Floor(h))
	hi := int(math.Ceil(h))
	if lo == hi {
		return sorted[lo]
	}
	frac := h - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
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
