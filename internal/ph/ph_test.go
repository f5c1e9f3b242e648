package ph

import (
	"math"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/matrix"
	"repro/internal/stats"
	"repro/internal/xrand"
)

func TestExponentialMomentsAndCDF(t *testing.T) {
	d := Exponential(2) // mean 0.5
	if math.Abs(d.Mean()-0.5) > 1e-12 {
		t.Errorf("mean = %v, want 0.5", d.Mean())
	}
	if math.Abs(d.SCV()-1) > 1e-12 {
		t.Errorf("SCV = %v, want 1", d.SCV())
	}
	// CDF at mean: 1 - e^{-1}.
	want := 1 - math.Exp(-1)
	if got := d.CDF(0.5); math.Abs(got-want) > 1e-9 {
		t.Errorf("CDF(0.5) = %v, want %v", got, want)
	}
	if d.CDF(0) != 0 || d.CDF(-1) != 0 {
		t.Error("CDF at non-positive x should be 0")
	}
}

func TestExponentialQuantile(t *testing.T) {
	d := Exponential(1)
	for _, q := range []float64{0.1, 0.5, 0.95, 0.99} {
		got, err := d.Quantile(q)
		if err != nil {
			t.Fatal(err)
		}
		want := -math.Log(1 - q)
		if math.Abs(got-want) > 1e-6*want {
			t.Errorf("Quantile(%v) = %v, want %v", q, got, want)
		}
	}
}

func TestQuantileRangeErrors(t *testing.T) {
	d := Exponential(1)
	for _, q := range []float64{0, 1, -0.5, 1.5} {
		if _, err := d.Quantile(q); err == nil {
			t.Errorf("Quantile(%v) should error", q)
		}
	}
}

func TestErlangMoments(t *testing.T) {
	d := Erlang(4, 2)
	if math.Abs(d.Mean()-2) > 1e-10 {
		t.Errorf("Erlang mean = %v, want 2", d.Mean())
	}
	if math.Abs(d.SCV()-0.25) > 1e-10 {
		t.Errorf("Erlang SCV = %v, want 0.25", d.SCV())
	}
	// Third moment of Erlang(k, mean): mean^3 (k+1)(k+2)/k^2.
	want := 8.0 * 5 * 6 / 16
	if math.Abs(d.Moment(3)-want) > 1e-9 {
		t.Errorf("Erlang m3 = %v, want %v", d.Moment(3), want)
	}
}

func TestHyper2Moments(t *testing.T) {
	// H2(p=0.4, r1=1, r2=10): mean = .4/1 + .6/10 = 0.46.
	d := Hyper2(0.4, 1, 10)
	if math.Abs(d.Mean()-0.46) > 1e-12 {
		t.Errorf("H2 mean = %v, want 0.46", d.Mean())
	}
	m2 := 2 * (0.4/1 + 0.6/100)
	if math.Abs(d.Moment(2)-m2) > 1e-12 {
		t.Errorf("H2 m2 = %v, want %v", d.Moment(2), m2)
	}
}

func TestCDFMonotoneAndLimits(t *testing.T) {
	d := Hyper2(0.3, 0.5, 5)
	prev := -1.0
	for x := 0.0; x < 20; x += 0.25 {
		c := d.CDF(x)
		if c < prev-1e-12 {
			t.Fatalf("CDF not monotone at %v: %v < %v", x, c, prev)
		}
		if c < 0 || c > 1 {
			t.Fatalf("CDF(%v) = %v out of [0,1]", x, c)
		}
		prev = c
	}
	if d.CDF(200) < 0.999999 {
		t.Errorf("CDF should approach 1, got %v", d.CDF(200))
	}
}

func TestPDFIntegratesToCDF(t *testing.T) {
	d := Erlang(3, 1)
	// Trapezoidal integration of the PDF should match the CDF.
	const n = 2000
	const h = 2.0 / n
	integral := 0.0
	for i := 0; i < n; i++ {
		x := float64(i) * h
		integral += h * (d.PDF(x) + d.PDF(x+h)) / 2
	}
	if math.Abs(integral-d.CDF(2)) > 1e-4 {
		t.Errorf("integral PDF = %v, CDF(2) = %v", integral, d.CDF(2))
	}
}

func TestSampleMatchesMoments(t *testing.T) {
	d := Hyper2(0.9, 2, 0.1)
	src := xrand.New(17)
	var acc stats.Accumulator
	for i := 0; i < 200000; i++ {
		acc.Add(d.Sample(src))
	}
	if math.Abs(acc.Mean()-d.Mean()) > 0.02*d.Mean() {
		t.Errorf("sample mean = %v, want ~%v", acc.Mean(), d.Mean())
	}
	if math.Abs(acc.Variance()-d.Variance()) > 0.06*d.Variance() {
		t.Errorf("sample variance = %v, want ~%v", acc.Variance(), d.Variance())
	}
}

func TestErlangWithTransitionsSample(t *testing.T) {
	// Erlang has internal transitions, exercising the jump branch in Sample.
	d := Erlang(5, 1)
	src := xrand.New(23)
	var acc stats.Accumulator
	for i := 0; i < 100000; i++ {
		acc.Add(d.Sample(src))
	}
	if math.Abs(acc.Mean()-1) > 0.01 {
		t.Errorf("Erlang sample mean = %v, want ~1", acc.Mean())
	}
	if math.Abs(acc.SCV()-0.2) > 0.01 {
		t.Errorf("Erlang sample SCV = %v, want ~0.2", acc.SCV())
	}
}

func TestNewValidation(t *testing.T) {
	cases := []struct {
		name  string
		alpha []float64
		t     *matrix.Dense
	}{
		{"alpha length", []float64{1}, matrix.NewDense(2, 2)},
		{"alpha sum", []float64{0.5, 0.2}, matrix.FromRows([][]float64{{-1, 0}, {0, -1}})},
		{"negative alpha", []float64{-0.5, 1.5}, matrix.FromRows([][]float64{{-1, 0}, {0, -1}})},
		{"positive diagonal", []float64{1, 0}, matrix.FromRows([][]float64{{1, 0}, {0, -1}})},
		{"negative off-diagonal", []float64{1, 0}, matrix.FromRows([][]float64{{-1, -1}, {0, -1}})},
		{"row sum positive", []float64{1, 0}, matrix.FromRows([][]float64{{-1, 2}, {0, -1}})},
		{"non-absorbing", []float64{0.5, 0.5}, matrix.FromRows([][]float64{{-1, 1}, {1, -1}})},
	}
	for _, c := range cases {
		if _, err := New(c.alpha, c.t); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
}

func TestNonSquareRejected(t *testing.T) {
	if _, err := New([]float64{1}, matrix.NewDense(1, 2)); err == nil {
		t.Error("expected error for non-square generator")
	}
}

// Property: quantile inverts the CDF for random H2 distributions.
func TestPropQuantileInvertsCDF(t *testing.T) {
	f := func(seed int64) bool {
		src := xrand.New(seed)
		p := 0.05 + 0.9*src.Float64()
		r1 := 0.1 + 5*src.Float64()
		r2 := 0.1 + 5*src.Float64()
		d := Hyper2(p, r1, r2)
		for _, q := range []float64{0.25, 0.5, 0.95} {
			x, err := d.Quantile(q)
			if err != nil {
				return false
			}
			if math.Abs(d.CDF(x)-q) > 1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: mean from Moment matches integral of survival function.
func TestPropMeanMatchesSurvivalIntegral(t *testing.T) {
	f := func(seed int64) bool {
		src := xrand.New(seed)
		k := 1 + src.Intn(4)
		mean := 0.5 + 2*src.Float64()
		d := Erlang(k, mean)
		// integral of (1 - CDF) over [0, inf) ~ mean.
		h := mean / 200
		integral := 0.0
		for x := 0.0; x < mean*30; x += h {
			integral += h * (1 - d.CDF(x+h/2))
		}
		return math.Abs(integral-d.Mean()) < 0.02*d.Mean()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

// TestCDFPDFWorkspaceMatchesExpm pins CDF and PDF, which evaluate e^{Tx}
// in a pooled workspace, bit for bit against ExpmTo with fresh matrices
// (itself pinned to the former allocating Expm in internal/matrix), and
// checks that a warm evaluation allocates nothing (except under -race).
func TestCDFPDFWorkspaceMatchesExpm(t *testing.T) {
	dists := []*Dist{
		Exponential(3),
		Erlang(4, 0.02),
		Hyper2(0.3, 50, 0.5),
		MustNew([]float64{0.6, 0.4}, matrix.FromRows([][]float64{{-120, 20}, {3, -4}})),
	}
	for di, d := range dists {
		for _, x := range []float64{0, 1e-4, 0.01, 0.3, 2, 40} {
			p := matrix.NewDense(d.Order(), d.Order())
			matrix.ExpmTo(p, d.T.Scale(x), matrix.NewExpmWork(d.Order()))
			v := p.VecMul(d.Alpha)
			surv, dens := 0.0, 0.0
			for i, s := range v {
				surv += s
				dens += s * d.exit[i]
			}
			surv = math.Min(math.Max(surv, 0), 1)
			dens = math.Max(dens, 0)
			if x > 0 && math.Float64bits(d.CDF(x)) != math.Float64bits(1-surv) {
				t.Errorf("dist %d: CDF(%v) = %v, Expm gives %v", di, x, d.CDF(x), 1-surv)
			}
			if math.Float64bits(d.PDF(x)) != math.Float64bits(dens) {
				t.Errorf("dist %d: PDF(%v) = %v, Expm gives %v", di, x, d.PDF(x), dens)
			}
		}
		if raceEnabled {
			continue
		}
		if allocs := testing.AllocsPerRun(20, func() { d.CDF(0.7); d.PDF(0.7) }); allocs != 0 {
			t.Errorf("dist %d: warm CDF and PDF allocate %v times, want 0", di, allocs)
		}
	}
}

// TestCDFConcurrentCallers evaluates one Dist from several goroutines at
// once: each evaluation must take its own pooled workspace.
func TestCDFConcurrentCallers(t *testing.T) {
	d := MustNew([]float64{0.6, 0.4}, matrix.FromRows([][]float64{{-120, 20}, {3, -4}}))
	xs := []float64{0.001, 0.05, 0.4, 3}
	want := make([]float64, len(xs))
	for i, x := range xs {
		want[i] = d.CDF(x)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 200; k++ {
				i := k % len(xs)
				if got := d.CDF(xs[i]); math.Float64bits(got) != math.Float64bits(want[i]) {
					t.Errorf("CDF(%v) = %v under concurrent callers, want %v", xs[i], got, want[i])
					return
				}
			}
		}()
	}
	wg.Wait()
}
