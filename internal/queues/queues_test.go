package queues

import (
	"math"
	"testing"

	"repro/internal/markov"
	"repro/internal/trace"
	"repro/internal/xrand"
)

func TestMTrace1ExponentialMatchesMM1(t *testing.T) {
	// i.i.d. exponential trace: M/Trace/1 == M/M/1.
	src := xrand.New(5)
	tr := make(trace.T, 100000)
	for i := range tr {
		tr[i] = src.Exp(1)
	}
	res, err := MTrace1(tr, 0.5, src.Split())
	if err != nil {
		t.Fatal(err)
	}
	// M/M/1 rho=0.5: R = 1/(1-rho)*S = 2.
	if math.Abs(res.MeanResponse-2) > 0.15 {
		t.Errorf("mean response = %v, want ~2", res.MeanResponse)
	}
	if math.Abs(res.Utilization-0.5) > 0.02 {
		t.Errorf("utilization = %v, want ~0.5", res.Utilization)
	}
	// M/M/1 response is exponential: P95 = -ln(0.05)*R ~ 5.99.
	if math.Abs(res.P95Response-5.99) > 0.6 {
		t.Errorf("P95 = %v, want ~6", res.P95Response)
	}
	if res.Jobs != len(tr) {
		t.Errorf("jobs = %d, want %d", res.Jobs, len(tr))
	}
}

// TestMTrace1BitIdentical pins the FCFS path of the des kernel bit for
// bit: a strongly bursty trace at utilization 0.8, so long queues form
// and drain. The values were recorded from the container/heap event
// calendar; any change to the order in which events fire moves them.
func TestMTrace1BitIdentical(t *testing.T) {
	tr, err := trace.GenerateH2Trace(20000, 1, 3, trace.ProfileStrongBursts, xrand.New(21))
	if err != nil {
		t.Fatal(err)
	}
	res, err := MTrace1(tr, 0.8, xrand.New(22))
	if err != nil {
		t.Fatal(err)
	}
	if res.Jobs != len(tr) {
		t.Errorf("Jobs = %d, want %d", res.Jobs, len(tr))
	}
	for _, c := range []struct {
		field     string
		got, want float64
	}{
		{"MeanResponse", res.MeanResponse, 0x1.5d820e130bacbp+07},
		{"P95Response", res.P95Response, 0x1.398a09a06621fp+09},
		{"Utilization", res.Utilization, 0x1.99a2d6e6e93afp-01},
		{"MeanWait", res.MeanWait, 0x1.5b83f06fdab4cp+07},
	} {
		if c.got != c.want {
			t.Errorf("%s = %x, want %x", c.field, c.got, c.want)
		}
	}
}

func TestMG1MatchesPollaczekKhinchine(t *testing.T) {
	// H2 service, iid: simulated mean response must match P-K.
	h, err := xrand.NewHyper2(1, 3)
	if err != nil {
		t.Fatal(err)
	}
	src := xrand.New(7)
	res, err := MG1(200000, 0.5, func() float64 { return h.Sample(src) }, src.Split())
	if err != nil {
		t.Fatal(err)
	}
	m1 := 1.0
	m2 := (3.0 + 1) * m1 * m1 // m2 = (SCV+1)*m1^2
	want, err := PollaczekKhinchine(0.5, m1, m2)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.MeanResponse-want) > 0.12*want {
		t.Errorf("M/G/1 mean response = %v, P-K = %v", res.MeanResponse, want)
	}
}

func TestBurstyTraceBreaksPollaczekKhinchine(t *testing.T) {
	// The paper's core motivation (Table 1): the same marginal with
	// bursts produces far worse response times than P-K predicts.
	tr, err := trace.GenerateH2Trace(20000, 1, 3, trace.ProfileSingleBurst, xrand.New(11))
	if err != nil {
		t.Fatal(err)
	}
	res, err := MTrace1(tr, 0.5, xrand.New(12))
	if err != nil {
		t.Fatal(err)
	}
	pk, err := PollaczekKhinchine(0.5, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	if res.MeanResponse < 5*pk {
		t.Errorf("bursty response %v should dwarf P-K %v", res.MeanResponse, pk)
	}
}

func TestTable1OrderingAcrossProfiles(t *testing.T) {
	// Response times must increase monotonically with the burstiness
	// profile at both utilization levels (the shape of Table 1).
	profiles := []trace.Profile{
		trace.ProfileRandom, trace.ProfileMildBursts,
		trace.ProfileStrongBursts, trace.ProfileSingleBurst,
	}
	for _, lambda := range []float64{0.5, 0.8} {
		prevMean := 0.0
		for _, p := range profiles {
			tr, err := trace.GenerateH2Trace(20000, 1, 3, p, xrand.New(21))
			if err != nil {
				t.Fatal(err)
			}
			res, err := MTrace1(tr, lambda, xrand.New(22))
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("lambda=%v %v: mean=%.2f p95=%.2f util=%.2f", lambda, p, res.MeanResponse, res.P95Response, res.Utilization)
			if res.MeanResponse < prevMean {
				t.Errorf("lambda=%v: response not increasing at %v", lambda, p)
			}
			prevMean = res.MeanResponse
		}
	}
}

func TestMMAP1BurstyWorseThanPoisson(t *testing.T) {
	fit, err := markov.FitThreePoint(1, 100, 6, markov.FitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	bursty, err := MMAP1(50000, 0.5, fit.MAP, xrand.New(31))
	if err != nil {
		t.Fatal(err)
	}
	poisson, err := MMAP1(50000, 0.5, markov.Poisson(1), xrand.New(31))
	if err != nil {
		t.Fatal(err)
	}
	if bursty.MeanResponse <= poisson.MeanResponse {
		t.Errorf("bursty MAP response %v should exceed Poisson %v",
			bursty.MeanResponse, poisson.MeanResponse)
	}
}

func TestInputValidation(t *testing.T) {
	src := xrand.New(1)
	if _, err := MTrace1(nil, 1, src); err == nil {
		t.Error("expected error for empty trace")
	}
	if _, err := MTrace1(trace.T{1}, 0, src); err == nil {
		t.Error("expected error for zero arrival rate")
	}
	if _, err := MTrace1(trace.T{1}, 1, nil); err == nil {
		t.Error("expected error for nil source")
	}
	if _, err := MG1(0, 1, func() float64 { return 1 }, src); err == nil {
		t.Error("expected error for zero jobs")
	}
	if _, err := MMAP1(10, 1, nil, src); err == nil {
		t.Error("expected error for nil MAP")
	}
	if _, err := MMAP1(0, 1, markov.Poisson(1), src); err == nil {
		t.Error("expected error for zero jobs")
	}
}

func TestPollaczekKhinchineValidation(t *testing.T) {
	if _, err := PollaczekKhinchine(1, 1, 2); err == nil {
		t.Error("expected error for rho >= 1")
	}
	if _, err := PollaczekKhinchine(0.5, 0, 2); err == nil {
		t.Error("expected error for zero m1")
	}
	// M/M/1 check: lambda=0.5, exp(1): R = 1 + 0.5*2/(2*0.5) = 2.
	r, err := PollaczekKhinchine(0.5, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r-2) > 1e-12 {
		t.Errorf("P-K M/M/1 = %v, want 2", r)
	}
}

func TestMeanWaitConsistent(t *testing.T) {
	src := xrand.New(3)
	tr := make(trace.T, 30000)
	for i := range tr {
		tr[i] = src.Exp(1)
	}
	res, err := MTrace1(tr, 0.5, src.Split())
	if err != nil {
		t.Fatal(err)
	}
	// Response = wait + service: means must add up.
	if math.Abs(res.MeanResponse-(res.MeanWait+tr.Mean())) > 1e-9 {
		t.Errorf("R = %v != W + S = %v", res.MeanResponse, res.MeanWait+tr.Mean())
	}
}

func TestHeavyTrafficMatchesMM1(t *testing.T) {
	// For Poisson arrivals (I=1) and exponential service (SCV=1), the
	// formula reduces to the exact M/M/1 waiting time rho/(1-rho)*S.
	for _, rho := range []float64{0.5, 0.8, 0.95} {
		w, err := HeavyTrafficWait(rho, 1, 1, 1)
		if err != nil {
			t.Fatal(err)
		}
		want := rho / (1 - rho)
		if math.Abs(w-want) > 1e-12 {
			t.Errorf("rho=%v: W = %v, want %v", rho, w, want)
		}
	}
}

func TestHeavyTrafficScalesWithI(t *testing.T) {
	w1, err := HeavyTrafficWait(0.9, 1, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	w100, err := HeavyTrafficWait(0.9, 1, 100, 1)
	if err != nil {
		t.Fatal(err)
	}
	// W grows linearly in (I + SCV)/2: I=100 vs I=1 gives 101/2 ratio.
	if math.Abs(w100/w1-101.0/2) > 1e-9 {
		t.Errorf("scaling ratio = %v, want %v", w100/w1, 101.0/2)
	}
	r, err := HeavyTrafficResponse(0.9, 1, 100, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r-(w100+1)) > 1e-12 {
		t.Errorf("response = %v, want wait + service", r)
	}
}

func TestHeavyTrafficAgainstMMAP1Simulation(t *testing.T) {
	// The approximation should land within a modest factor of a bursty
	// M/MAP/1... here service burstiness enters through the service SCV
	// and the arrival process is Poisson, so we validate the service-side
	// term: M/G/1 with SCV=3 at rho=0.8.
	h, err := xrand.NewHyper2(1, 3)
	if err != nil {
		t.Fatal(err)
	}
	src := xrand.New(77)
	res, err := MG1(150000, 0.8, func() float64 { return h.Sample(src) }, src.Split())
	if err != nil {
		t.Fatal(err)
	}
	w, err := HeavyTrafficWait(0.8, 1, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	sim := res.MeanResponse - 1
	if math.Abs(w-sim) > 0.2*sim {
		t.Errorf("heavy-traffic W = %v vs simulated %v", w, sim)
	}
}

func TestHeavyTrafficValidation(t *testing.T) {
	cases := [][4]float64{
		{0, 1, 1, 1},
		{1, 1, 1, 1},
		{0.5, 0, 1, 1},
		{0.5, 1, 0, 1},
		{0.5, 1, 1, -1},
	}
	for i, c := range cases {
		if _, err := HeavyTrafficWait(c[0], c[1], c[2], c[3]); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
	if _, err := HeavyTrafficResponse(0, 1, 1, 1); err == nil {
		t.Error("expected error propagation in HeavyTrafficResponse")
	}
}
