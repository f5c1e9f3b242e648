package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return false
	}
	return math.Abs(a-b) <= tol
}

func TestMeanBasic(t *testing.T) {
	cases := []struct {
		xs   []float64
		want float64
	}{
		{[]float64{1, 2, 3}, 2},
		{[]float64{5}, 5},
		{[]float64{-1, 1}, 0},
		{[]float64{0, 0, 0, 0}, 0},
	}
	for _, c := range cases {
		if got := Mean(c.xs); !almostEqual(got, c.want, 1e-12) {
			t.Errorf("Mean(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

func TestMeanEmptyIsNaN(t *testing.T) {
	if !math.IsNaN(Mean(nil)) {
		t.Fatal("Mean(nil) should be NaN")
	}
}

func TestVarianceKnown(t *testing.T) {
	// Var of {2,4,4,4,5,5,7,9} population = 4, sample = 32/7.
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := PopVariance(xs); !almostEqual(got, 4, 1e-12) {
		t.Errorf("PopVariance = %v, want 4", got)
	}
	if got := Variance(xs); !almostEqual(got, 32.0/7.0, 1e-12) {
		t.Errorf("Variance = %v, want %v", got, 32.0/7.0)
	}
}

func TestVarianceShortIsNaN(t *testing.T) {
	if !math.IsNaN(Variance([]float64{1})) {
		t.Fatal("Variance of single point should be NaN")
	}
}

func TestSCVExponentialLike(t *testing.T) {
	// For a deterministic sequence SCV must be 0.
	xs := []float64{3, 3, 3, 3, 3, 3}
	if got := SCV(xs); !almostEqual(got, 0, 1e-12) {
		t.Errorf("SCV constant = %v, want 0", got)
	}
}

func TestSkewnessSymmetricIsZero(t *testing.T) {
	xs := []float64{-2, -1, 0, 1, 2}
	if got := Skewness(xs); !almostEqual(got, 0, 1e-12) {
		t.Errorf("Skewness symmetric = %v, want 0", got)
	}
}

func TestSkewnessSign(t *testing.T) {
	right := []float64{1, 1, 1, 1, 10} // long right tail
	if got := Skewness(right); got <= 0 {
		t.Errorf("right-tailed skewness = %v, want > 0", got)
	}
	left := []float64{-10, 1, 1, 1, 1}
	if got := Skewness(left); got >= 0 {
		t.Errorf("left-tailed skewness = %v, want < 0", got)
	}
}

func TestPercentileKnown(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	p50, err := Percentile(xs, 50)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(p50, 5.5, 1e-12) {
		t.Errorf("P50 = %v, want 5.5", p50)
	}
	p100, _ := Percentile(xs, 100)
	if !almostEqual(p100, 10, 1e-12) {
		t.Errorf("P100 = %v, want 10", p100)
	}
}

func TestPercentileErrors(t *testing.T) {
	if _, err := Percentile(nil, 50); err == nil {
		t.Error("expected error for empty sample")
	}
	if _, err := Percentile([]float64{1}, 0); err == nil {
		t.Error("expected error for p=0")
	}
	if _, err := Percentile([]float64{1}, 101); err == nil {
		t.Error("expected error for p>100")
	}
}

func TestPercentileDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	if _, err := Percentile(xs, 95); err != nil {
		t.Fatal(err)
	}
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Errorf("Percentile mutated input: %v", xs)
	}
}

func TestAutocorrelationAlternating(t *testing.T) {
	// Perfectly alternating series has lag-1 autocorrelation near -1.
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i%2)*2 - 1
	}
	r1, err := Autocorrelation(xs, 1)
	if err != nil {
		t.Fatal(err)
	}
	if r1 > -0.99 {
		t.Errorf("lag-1 autocorrelation of alternating series = %v, want ~ -1", r1)
	}
	r2, err := Autocorrelation(xs, 2)
	if err != nil {
		t.Fatal(err)
	}
	if r2 < 0.99 {
		t.Errorf("lag-2 autocorrelation of alternating series = %v, want ~ 1", r2)
	}
}

func TestAutocorrelationIIDNearZero(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	xs := make([]float64, 20000)
	for i := range xs {
		xs[i] = rng.ExpFloat64()
	}
	r1, err := Autocorrelation(xs, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r1) > 0.03 {
		t.Errorf("iid lag-1 autocorrelation = %v, want ~0", r1)
	}
}

func TestACFMatchesAutocorrelation(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	xs := make([]float64, 500)
	for i := range xs {
		xs[i] = rng.Float64() + 0.5*float64(i%3)
	}
	acf, err := ACF(xs, 10)
	if err != nil {
		t.Fatal(err)
	}
	for k := 1; k <= 10; k++ {
		want, err := Autocorrelation(xs, k)
		if err != nil {
			t.Fatal(err)
		}
		if !almostEqual(acf[k-1], want, 1e-12) {
			t.Errorf("ACF lag %d = %v, want %v", k, acf[k-1], want)
		}
	}
}

func TestACFErrors(t *testing.T) {
	if _, err := ACF([]float64{1, 2, 3}, 0); err == nil {
		t.Error("expected error for maxLag=0")
	}
	if _, err := ACF([]float64{1, 2, 3}, 3); err == nil {
		t.Error("expected error for maxLag >= n")
	}
}

func TestMinMax(t *testing.T) {
	lo, hi := MinMax([]float64{3, -1, 7, 0})
	if lo != -1 || hi != 7 {
		t.Errorf("MinMax = (%v,%v), want (-1,7)", lo, hi)
	}
}

// Property: mean lies within [min, max].
func TestPropMeanWithinRange(t *testing.T) {
	f := func(xs []float64) bool {
		clean := xs[:0]
		for _, x := range xs {
			if !math.IsNaN(x) && !math.IsInf(x, 0) && math.Abs(x) < 1e8 {
				clean = append(clean, x)
			}
		}
		if len(clean) == 0 {
			return true
		}
		m := Mean(clean)
		lo, hi := MinMax(clean)
		return m >= lo-1e-9 && m <= hi+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: variance is non-negative and shift-invariant.
func TestPropVarianceShiftInvariant(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(100)
		xs := make([]float64, n)
		ys := make([]float64, n)
		shift := rng.Float64()*100 - 50
		for i := range xs {
			xs[i] = rng.NormFloat64() * 10
			ys[i] = xs[i] + shift
		}
		v1, v2 := Variance(xs), Variance(ys)
		if v1 < 0 {
			return false
		}
		return math.Abs(v1-v2) <= 1e-6*(1+math.Abs(v1))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: percentile is monotone in p and bounded by min/max.
func TestPropPercentileMonotone(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(200)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.NormFloat64() * 5
		}
		prev := math.Inf(-1)
		for p := 5.0; p <= 100; p += 5 {
			v, err := Percentile(xs, p)
			if err != nil {
				return false
			}
			if v < prev-1e-12 {
				return false
			}
			prev = v
		}
		lo, hi := MinMax(xs)
		p5, _ := Percentile(xs, 5)
		p100, _ := Percentile(xs, 100)
		return p5 >= lo-1e-12 && p100 <= hi+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestAccumulatorMatchesBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	xs := make([]float64, 5000)
	for i := range xs {
		xs[i] = rng.ExpFloat64() * 3
	}
	var acc Accumulator
	acc.AddAll(xs)
	if acc.N() != len(xs) {
		t.Fatalf("N = %d, want %d", acc.N(), len(xs))
	}
	if !almostEqual(acc.Mean(), Mean(xs), 1e-9) {
		t.Errorf("acc mean %v vs batch %v", acc.Mean(), Mean(xs))
	}
	if !almostEqual(acc.Variance(), Variance(xs), 1e-9) {
		t.Errorf("acc var %v vs batch %v", acc.Variance(), Variance(xs))
	}
	if !almostEqual(acc.SCV(), SCV(xs), 1e-9) {
		t.Errorf("acc SCV %v vs batch %v", acc.SCV(), SCV(xs))
	}
	if !almostEqual(acc.Skewness(), Skewness(xs), 1e-6) {
		t.Errorf("acc skew %v vs batch %v", acc.Skewness(), Skewness(xs))
	}
	lo, hi := MinMax(xs)
	if acc.Min() != lo || acc.Max() != hi {
		t.Errorf("acc min/max (%v,%v) vs batch (%v,%v)", acc.Min(), acc.Max(), lo, hi)
	}
}

func TestAccumulatorEmpty(t *testing.T) {
	var acc Accumulator
	if !math.IsNaN(acc.Mean()) || !math.IsNaN(acc.Min()) || !math.IsNaN(acc.Max()) {
		t.Error("empty accumulator should report NaNs")
	}
}

func TestAccumulatorReset(t *testing.T) {
	var acc Accumulator
	acc.AddAll([]float64{1, 2, 3})
	acc.Reset()
	if acc.N() != 0 || acc.Sum() != 0 {
		t.Error("Reset did not clear accumulator")
	}
}

func TestOLSRecoversLine(t *testing.T) {
	x := []float64{0, 1, 2, 3, 4, 5}
	y := make([]float64, len(x))
	for i := range x {
		y[i] = 2.5*x[i] + 1.0
	}
	fit, err := OLS(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(fit.Slope, 2.5, 1e-12) || !almostEqual(fit.Intercept, 1.0, 1e-12) {
		t.Errorf("OLS = %+v, want slope 2.5 intercept 1", fit)
	}
	if !almostEqual(fit.R2, 1.0, 1e-12) {
		t.Errorf("R2 = %v, want 1", fit.R2)
	}
}

func TestOLSThroughOriginUtilizationLaw(t *testing.T) {
	// Simulated utilization law: U = S * X with S = 0.004.
	x := []float64{100, 150, 200, 220, 240}
	y := make([]float64, len(x))
	for i := range x {
		y[i] = 0.004 * x[i]
	}
	fit, err := OLSThroughOrigin(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(fit.Slope, 0.004, 1e-12) {
		t.Errorf("slope = %v, want 0.004", fit.Slope)
	}
}

func TestOLSErrors(t *testing.T) {
	if _, err := OLS([]float64{1}, []float64{1, 2}); err == nil {
		t.Error("expected length mismatch error")
	}
	if _, err := OLS([]float64{1}, []float64{1}); err == nil {
		t.Error("expected short sample error")
	}
	if _, err := OLS([]float64{2, 2, 2}, []float64{1, 2, 3}); err == nil {
		t.Error("expected zero-variance error")
	}
	if _, err := OLSThroughOrigin(nil, nil); err == nil {
		t.Error("expected empty error")
	}
}

func TestRelativeError(t *testing.T) {
	if got := RelativeError(110, 100); !almostEqual(got, 0.1, 1e-12) {
		t.Errorf("RelativeError = %v, want 0.1", got)
	}
	if !math.IsNaN(RelativeError(1, 0)) {
		t.Error("RelativeError with zero actual should be NaN")
	}
}

func TestHistogramQuantile(t *testing.T) {
	h, err := NewHistogram(0, 10, 100)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 100000; i++ {
		h.Add(rng.Float64() * 10)
	}
	q5 := h.Quantile(0.5)
	if math.Abs(q5-5) > 0.1 {
		t.Errorf("uniform median = %v, want ~5", q5)
	}
	q95 := h.Quantile(0.95)
	if math.Abs(q95-9.5) > 0.1 {
		t.Errorf("uniform P95 = %v, want ~9.5", q95)
	}
}

func TestHistogramOutOfRange(t *testing.T) {
	h, _ := NewHistogram(0, 1, 10)
	h.Add(-5)
	h.Add(42)
	h.Add(0.5)
	if h.Underflow != 1 || h.Overflow != 1 || h.N() != 3 {
		t.Errorf("under/over/n = %d/%d/%d", h.Underflow, h.Overflow, h.N())
	}
	if s := h.String(); s == "" {
		t.Error("String() should render bins")
	}
}

func TestHistogramErrors(t *testing.T) {
	if _, err := NewHistogram(1, 1, 10); err == nil {
		t.Error("expected empty-range error")
	}
	if _, err := NewHistogram(0, 1, 0); err == nil {
		t.Error("expected zero-bins error")
	}
}

func TestRawMoment(t *testing.T) {
	xs := []float64{1, 2, 3}
	if got := RawMoment(xs, 2); !almostEqual(got, (1.0+4+9)/3, 1e-12) {
		t.Errorf("RawMoment2 = %v", got)
	}
}

// sortedPercentile is the sort-based reference Percentile must match:
// sort.Float64s on a copy, then R type-7 interpolation.
func sortedPercentile(xs []float64, p float64) float64 {
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if len(sorted) == 1 {
		return sorted[0]
	}
	h := (p / 100) * float64(len(sorted)-1)
	lo, hi := int(math.Floor(h)), int(math.Ceil(h))
	if lo == hi {
		return sorted[lo]
	}
	frac := h - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// TestPercentileMatchesSortBitForBit checks selection against the sort
// reference on seeded samples: continuous values, heavy ties, a single
// element, signed zeros, NaNs (which sort.Float64s orders first) and
// infinities, at random and boundary percentiles. A NaN result must be
// NaN in both.
func TestPercentileMatchesSortBitForBit(t *testing.T) {
	src := rand.New(rand.NewSource(29))
	nan := math.NaN()
	cases := [][]float64{
		{4.5},
		{nan},
		{math.Copysign(0, -1)},
		{0, math.Copysign(0, -1), 0, math.Copysign(0, -1), 1, -1},
		{nan, 3, 1, nan, 2, math.Inf(1), math.Inf(-1)},
		{math.NaN(), 0 * math.Inf(1), 5, 5, 5},
		{2, 2, 2, 2, 2, 2, 2},
	}
	for c := 0; c < 60; c++ {
		n := 1 + src.Intn(400)
		xs := make([]float64, n)
		levels := 1 + src.Intn(8) // few levels make ties
		for i := range xs {
			switch r := src.Float64(); {
			case c%3 == 0:
				xs[i] = src.ExpFloat64()
			case r < 0.05:
				xs[i] = nan
			case r < 0.1:
				xs[i] = math.Copysign(0, -1)
			case r < 0.15:
				xs[i] = 0
			default:
				xs[i] = float64(src.Intn(levels)) - 2
			}
		}
		cases = append(cases, xs)
	}
	for ci, xs := range cases {
		keep := append([]float64(nil), xs...)
		for _, p := range []float64{1e-9, 1, 25, 50, 90, 95, 99, 100, 100 * src.Float64()} {
			if p == 0 {
				continue
			}
			got, err := Percentile(xs, p)
			if err != nil {
				t.Fatal(err)
			}
			want := sortedPercentile(xs, p)
			if math.IsNaN(want) && math.IsNaN(got) {
				// Both picked the same NaN ranks; when they interpolate
				// between two NaNs, which payload the sum keeps depends
				// on the operand order the compiler emits, which Go
				// leaves unspecified.
				continue
			}
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("case %d (n=%d) p=%v: Percentile = %v (%#x), sort reference %v (%#x)",
					ci, len(xs), p, got, math.Float64bits(got), want, math.Float64bits(want))
			}
		}
		for i := range xs {
			if math.Float64bits(xs[i]) != math.Float64bits(keep[i]) {
				t.Fatalf("case %d: Percentile mutated its input", ci)
			}
		}
	}
}
