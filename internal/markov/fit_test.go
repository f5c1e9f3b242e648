package markov

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/xrand"
)

func TestFitThreePointHitsMeanAndI(t *testing.T) {
	for _, tc := range []struct{ mean, i, p95 float64 }{
		{0.05, 40, 0.3},
		{0.01, 308, 0.05},
		{1, 3, 4},
		{0.2, 98, 1.5},
		{0.002, 286, 0.01},
	} {
		res, err := FitThreePoint(tc.mean, tc.i, tc.p95, FitOptions{})
		if err != nil {
			t.Fatalf("%+v: %v", tc, err)
		}
		if math.Abs(res.MAP.Mean()-tc.mean) > 1e-6*tc.mean {
			t.Errorf("%+v: fitted mean = %v", tc, res.MAP.Mean())
		}
		if math.Abs(res.AchievedI-tc.i) > 0.05*tc.i {
			t.Errorf("%+v: fitted I = %v (paper allows 20%%)", tc, res.AchievedI)
		}
	}
}

func TestFitThreePointP95Selection(t *testing.T) {
	// Build a ground-truth process, measure its descriptors, refit, and
	// check the refit recovers a process with similar p95.
	h, _ := BalancedH2(0.1, 8)
	truth, err := CorrelatedH2(h, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	iTrue, _ := truth.IndexOfDispersion()
	p95True, _ := truth.Percentile(95)
	res, err := FitThreePoint(truth.Mean(), iTrue, p95True, FitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.RelErrP95 > 0.10 {
		t.Errorf("refit p95 error = %v (achieved %v, want %v)", res.RelErrP95, res.AchievedP95, p95True)
	}
	if math.Abs(res.SCV-8) > 2.5 {
		t.Errorf("refit SCV = %v, want near 8", res.SCV)
	}
}

func TestFitThreePointExponentialRegime(t *testing.T) {
	res, err := FitThreePoint(2, 1.0, 6, FitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.MAP.Order() != 1 {
		t.Errorf("I=1 should fit a Poisson process, got order %d", res.MAP.Order())
	}
	if math.Abs(res.MAP.Mean()-2) > 1e-9 {
		t.Errorf("mean = %v, want 2", res.MAP.Mean())
	}
}

func TestFitThreePointSmoothRegime(t *testing.T) {
	res, err := FitThreePoint(1, 0.25, 0, FitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.AchievedI-0.25) > 0.05 {
		t.Errorf("I = %v, want ~0.25 (Erlang-4)", res.AchievedI)
	}
	if math.Abs(res.MAP.Mean()-1) > 1e-9 {
		t.Errorf("mean = %v, want 1", res.MAP.Mean())
	}
}

func TestFitThreePointInvalidInputs(t *testing.T) {
	if _, err := FitThreePoint(0, 3, 1, FitOptions{}); err == nil {
		t.Error("expected error for zero mean")
	}
	if _, err := FitThreePoint(1, 0, 1, FitOptions{}); err == nil {
		t.Error("expected error for zero I")
	}
}

func TestFitThreePointMaxLag1Policy(t *testing.T) {
	// The conservative policy must produce at least as much lag-1
	// autocorrelation as the default policy.
	mean, i, p95 := 0.05, 120.0, 0.4
	def, err := FitThreePoint(mean, i, p95, FitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	agg, err := FitThreePoint(mean, i, p95, FitOptions{Policy: SelectMaxLag1})
	if err != nil {
		t.Fatal(err)
	}
	if agg.MAP.AutocorrelationLag(1) < def.MAP.AutocorrelationLag(1)-1e-12 {
		t.Errorf("max-lag1 policy rho1 = %v < default %v",
			agg.MAP.AutocorrelationLag(1), def.MAP.AutocorrelationLag(1))
	}
}

func TestFitThreePointWithoutP95(t *testing.T) {
	// p95 = 0 means "not measured": the fit must still match mean and I.
	res, err := FitThreePoint(0.1, 50, 0, FitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.AchievedI-50) > 2.5 {
		t.Errorf("I = %v, want ~50", res.AchievedI)
	}
	if !math.IsNaN(res.RelErrP95) {
		t.Error("RelErrP95 should be NaN without a target")
	}
}

func TestGammaForI(t *testing.T) {
	g, err := GammaForI(3, 10)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(TheoreticalI(3, g)-10) > 1e-9 {
		t.Errorf("round-trip I = %v, want 10", TheoreticalI(3, g))
	}
	if _, err := GammaForI(3, 0.5); err == nil {
		t.Error("expected error for I <= 1")
	}
	if _, err := GammaForI(11, 10); err == nil {
		t.Error("expected error for scv > I")
	}
}

func TestFitMomentsRecoversH2(t *testing.T) {
	// Measure the moments of a known process and refit.
	h := H2Params{P: 0.7, Rate1: 5, Rate2: 0.5}
	truth, err := CorrelatedH2(h, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	m1 := truth.Moment(1)
	m2 := truth.Moment(2)
	m3 := truth.Moment(3)
	rho1 := truth.AutocorrelationLag(1)
	res, err := FitMoments(m1, m2, m3, rho1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.MAP.Mean()-m1) > 1e-6*m1 {
		t.Errorf("refit mean = %v, want %v", res.MAP.Mean(), m1)
	}
	if math.Abs(res.MAP.Moment(2)-m2) > 1e-6*m2 {
		t.Errorf("refit m2 = %v, want %v", res.MAP.Moment(2), m2)
	}
	if math.Abs(res.MAP.Moment(3)-m3) > 1e-5*m3 {
		t.Errorf("refit m3 = %v, want %v", res.MAP.Moment(3), m3)
	}
	if math.Abs(res.MAP.AutocorrelationLag(1)-rho1) > 1e-6 {
		t.Errorf("refit rho1 = %v, want %v", res.MAP.AutocorrelationLag(1), rho1)
	}
}

func TestFitMomentsClampsInfeasibleThirdMoment(t *testing.T) {
	// m3 below the H2 bound must be clamped, not rejected.
	m1, scv := 1.0, 3.0
	m2 := (scv + 1) * m1 * m1
	res, err := FitMoments(m1, m2, 0.1, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.MAP.Mean()-1) > 1e-6 {
		t.Errorf("mean = %v, want 1", res.MAP.Mean())
	}
	if math.Abs(res.MAP.SCV()-scv) > 0.01*scv {
		t.Errorf("SCV = %v, want %v", res.MAP.SCV(), scv)
	}
}

func TestFitMomentsExponentialBoundary(t *testing.T) {
	// SCV ~ 1: falls back to Poisson.
	res, err := FitMoments(1, 2, 6, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	if res.MAP.Order() != 1 {
		t.Errorf("order = %d, want 1 (Poisson)", res.MAP.Order())
	}
}

func TestFitMomentsInvalid(t *testing.T) {
	if _, err := FitMoments(0, 1, 1, 0); err == nil {
		t.Error("expected error for zero mean")
	}
	if _, err := FitMoments(1, 0.5, 1, 0); err == nil {
		t.Error("expected error for m2 below mean^2")
	}
}

func TestFitMomentsClampsExtremeRho(t *testing.T) {
	m1, scv := 1.0, 4.0
	m2 := (scv + 1) * m1 * m1
	m3 := 3 * m2 * m2 / m1 // feasible
	// rho1 beyond the representable region: gamma clamps to 0.999.
	res, err := FitMoments(m1, m2, m3, 0.99)
	if err != nil {
		t.Fatal(err)
	}
	if res.Gamma > 0.999+1e-12 {
		t.Errorf("gamma = %v, want clamped <= 0.999", res.Gamma)
	}
}

// Property: fit round-trip across the whole regime the paper's testbed
// produced (I from ~2 to ~300): descriptors are matched within tolerance.
func TestPropFitThreePointRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		src := xrand.New(seed)
		mean := 0.001 + 0.5*src.Float64()
		i := 1.5 + 350*src.Float64()
		// Target p95 drawn from a plausible multiple of the mean.
		p95 := mean * (2 + 10*src.Float64())
		res, err := FitThreePoint(mean, i, p95, FitOptions{GridPoints: 80})
		if err != nil {
			return false
		}
		return math.Abs(res.MAP.Mean()-mean) < 1e-6*mean &&
			math.Abs(res.AchievedI-i) < 0.2*i
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// h2QuantileFullBisection is h2Quantile as it was before it stopped at
// the bisection's fixed point: always 100 steps.
func h2QuantileFullBisection(h H2Params, q float64) float64 {
	cdf := func(x float64) float64 {
		return 1 - h.P*math.Exp(-h.Rate1*x) - (1-h.P)*math.Exp(-h.Rate2*x)
	}
	hi := h.Mean()
	for cdf(hi) < q {
		hi *= 2
	}
	lo := 0.0
	for i := 0; i < 100; i++ {
		mid := (lo + hi) / 2
		if cdf(mid) < q {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}

// TestH2QuantileMatchesFullBisection pins the early-stopping bisection
// bit for bit against the 100-step loop over a seeded grid of means,
// SCVs and quantiles, on balanced H2s and on H2s with a random mixing
// probability.
func TestH2QuantileMatchesFullBisection(t *testing.T) {
	src := xrand.New(41)
	qs := []float64{1e-12, 0.01, 0.5, 0.9, 0.95, 0.99, 0.999, 1 - 1e-9}
	for trial := 0; trial < 400; trial++ {
		mean := math.Pow(10, -4+6*src.Float64())
		scv := 1 + math.Pow(10, -3+6*src.Float64())
		h, err := BalancedH2(mean, scv)
		if err != nil {
			t.Fatal(err)
		}
		if trial%2 == 1 {
			h = H2Params{P: src.Float64(), Rate1: 1 / (mean * (0.01 + src.Float64())), Rate2: 1 / (mean * (1 + 100*src.Float64()))}
		}
		for _, q := range qs {
			got, err := h2Quantile(h, q)
			if err != nil {
				t.Fatalf("%+v q=%v: %v", h, q, err)
			}
			if want := h2QuantileFullBisection(h, q); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%+v q=%v: quantile %x, 100-step bisection %x", h, q, got, want)
			}
		}
	}
}
