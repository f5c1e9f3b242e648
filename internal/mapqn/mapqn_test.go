package mapqn

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/ctmc"
	"repro/internal/markov"
	"repro/internal/mva"
	"repro/internal/xrand"
)

// frontDB is the paper's two-station chain: the front server, then the
// database.
func frontDB(front, db *markov.MAP) []Station {
	return []Station{{Name: "front", MAP: front}, {Name: "db", MAP: db}}
}

// twoTier is the paper's front+DB network (Fig. 9) with think time z and
// n customers: the K=2 NetworkModel.
func twoTier(front, db *markov.MAP, z float64, n int) NetworkModel {
	return NetworkModel{Stations: frontDB(front, db), ThinkTime: z, Customers: n}
}

func TestValidate(t *testing.T) {
	p := markov.Poisson(1)
	cases := []NetworkModel{
		twoTier(nil, p, 1, 1),
		twoTier(p, nil, 1, 1),
		twoTier(p, p, -1, 1),
		twoTier(p, p, 1, 0),
	}
	for i, m := range cases {
		if err := m.Validate(); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
}

// TestPoissonReducesToMVA is the key cross-validation: with exponential
// service (Poisson MAPs, I = 1) the MAP queueing network is a product-form
// network, so the exact CTMC solution must match exact MVA.
func TestPoissonReducesToMVA(t *testing.T) {
	sFS, sDB, z := 0.004, 0.007, 0.5
	front := markov.Poisson(1 / sFS)
	db := markov.Poisson(1 / sDB)
	net := mva.ModelN([]float64{sFS, sDB}, nil, z)
	for _, n := range []int{1, 5, 25, 75} {
		m := twoTier(front, db, z, n)
		got, err := SolveNetwork(m, ctmc.Options{})
		if err != nil {
			t.Fatal(err)
		}
		want, err := mva.Solve(net, n)
		if err != nil {
			t.Fatal(err)
		}
		if rel := math.Abs(got.Throughput-want.Throughput) / want.Throughput; rel > 1e-6 {
			t.Errorf("N=%d: CTMC X = %v, MVA X = %v (rel %v)", n, got.Throughput, want.Throughput, rel)
		}
		if rel := math.Abs(got.QueueLens[0]-want.QueueLengths[0]) / (want.QueueLengths[0] + 1e-12); rel > 1e-5 {
			t.Errorf("N=%d: CTMC QF = %v, MVA QF = %v", n, got.QueueLens[0], want.QueueLengths[0])
		}
		if math.Abs(got.Utils[0]-want.Utilizations[0]) > 1e-6 {
			t.Errorf("N=%d: CTMC UF = %v, MVA UF = %v", n, got.Utils[0], want.Utilizations[0])
		}
	}
}

func TestSingleCustomerClosedForm(t *testing.T) {
	// N=1: the customer cycles think -> front -> db. With exponential
	// stations, X = 1/(Z + S_FS + S_DB) exactly.
	sFS, sDB, z := 0.2, 0.3, 1.0
	m := twoTier(markov.Poisson(1/sFS), markov.Poisson(1/sDB), z, 1)
	got, err := SolveNetwork(m, ctmc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := 1 / (z + sFS + sDB)
	if math.Abs(got.Throughput-want) > 1e-9 {
		t.Errorf("X = %v, want %v", got.Throughput, want)
	}
	if math.Abs(got.ResponseTime-(sFS+sDB)) > 1e-9 {
		t.Errorf("R = %v, want %v", got.ResponseTime, sFS+sDB)
	}
}

func TestBurstyServiceDegradesThroughput(t *testing.T) {
	// The paper's core claim: with identical mean demands, a bursty DB
	// (high I) yields lower throughput than an exponential DB at the same
	// population.
	sFS, sDB, z := 0.004, 0.006, 0.5
	front := markov.Poisson(1 / sFS)
	smoothDB := markov.Poisson(1 / sDB)
	fit, err := markov.FitThreePoint(sDB, 200, sDB*8, markov.FitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	burstyDB := fit.MAP
	n := 100
	smooth, err := SolveNetwork(twoTier(front, smoothDB, z, n), ctmc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	bursty, err := SolveNetwork(twoTier(front, burstyDB, z, n), ctmc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("X smooth = %.1f, X bursty = %.1f", smooth.Throughput, bursty.Throughput)
	if bursty.Throughput >= smooth.Throughput {
		t.Errorf("bursty X = %v should be below smooth X = %v", bursty.Throughput, smooth.Throughput)
	}
	// Queue builds at the bursty DB.
	if bursty.QueueLens[1] <= smooth.QueueLens[1] {
		t.Errorf("bursty QDB = %v should exceed smooth QDB = %v", bursty.QueueLens[1], smooth.QueueLens[1])
	}
}

func TestCustomerConservation(t *testing.T) {
	fit, err := markov.FitThreePoint(0.005, 50, 0.03, markov.FitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	m := twoTier(markov.Poisson(1/0.003), fit.MAP, 0.5, 40)
	got, err := SolveNetwork(m, ctmc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	total := got.QueueLens[0] + got.QueueLens[1] + got.Thinking
	if math.Abs(total-40) > 1e-6 {
		t.Errorf("customer conservation violated: %v != 40", total)
	}
	// Little's law on the think station: Thinking = X * Z (up to solver
	// residual).
	if math.Abs(got.Thinking-got.Throughput*0.5) > 1e-5*got.Thinking {
		t.Errorf("think-station Little's law violated: %v vs %v", got.Thinking, got.Throughput*0.5)
	}
}

func TestThroughputMonotoneInPopulation(t *testing.T) {
	fitF, err := markov.FitThreePoint(0.004, 40, 0.02, markov.FitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	fitD, err := markov.FitThreePoint(0.005, 100, 0.04, markov.FitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	mets, err := SolveNetworkSweep(frontDB(fitF.MAP, fitD.MAP), 0.5, []int{1, 5, 10, 20, 40, 80}, ctmc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	prev := 0.0
	for i, met := range mets {
		if met.Throughput < prev-1e-9 {
			t.Errorf("throughput decreased at sweep index %d: %v -> %v", i, prev, met.Throughput)
		}
		prev = met.Throughput
		if met.Utils[0] < 0 || met.Utils[0] > 1+1e-9 || met.Utils[1] < 0 || met.Utils[1] > 1+1e-9 {
			t.Errorf("utilization out of range: %+v", met)
		}
	}
}

func TestThroughputBoundedByBottleneck(t *testing.T) {
	// X <= 1/max(S_FS, S_DB) regardless of burstiness.
	fit, err := markov.FitThreePoint(0.01, 300, 0.08, markov.FitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	m := twoTier(markov.Poisson(1/0.002), fit.MAP, 0.25, 60)
	got, err := SolveNetwork(m, ctmc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got.Throughput > 1/0.01+1e-9 {
		t.Errorf("X = %v exceeds bottleneck bound %v", got.Throughput, 1/0.01)
	}
}

func TestStateSpaceIndexRoundTrip(t *testing.T) {
	s := newStateSpace(7, 2, 3)
	seen := make(map[int]bool)
	for n1 := 0; n1 <= 7; n1++ {
		for n2 := 0; n2 <= 7-n1; n2++ {
			for j1 := 0; j1 < 2; j1++ {
				for j2 := 0; j2 < 3; j2++ {
					idx := s.index(n1, n2, j1, j2)
					if idx < 0 || idx >= s.size() {
						t.Fatalf("index out of range: %d", idx)
					}
					if seen[idx] {
						t.Fatalf("duplicate index %d", idx)
					}
					seen[idx] = true
					a, b, c, d := s.decode(idx)
					if a != n1 || b != n2 || c != j1 || d != j2 {
						t.Fatalf("decode(%d) = (%d,%d,%d,%d), want (%d,%d,%d,%d)",
							idx, a, b, c, d, n1, n2, j1, j2)
					}
				}
			}
		}
	}
	if len(seen) != s.size() {
		t.Fatalf("enumerated %d states, size() = %d", len(seen), s.size())
	}
}

func TestGeneratorIsValid(t *testing.T) {
	fit, err := markov.FitThreePoint(0.005, 80, 0.03, markov.FitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	m := twoTier(markov.Poisson(1/0.004), fit.MAP, 0.5, 12)
	gen, _ := buildGenerator(m)
	if err := ctmc.ValidateGenerator(gen); err != nil {
		t.Errorf("generator invalid: %v", err)
	}
}

// Property: for random fitted MAPs the solution is a consistent set of
// metrics (conservation, utilization law, bounds).
func TestPropModelConsistency(t *testing.T) {
	f := func(seed int64) bool {
		src := xrand.New(seed)
		sFS := 0.001 + 0.01*src.Float64()
		sDB := 0.001 + 0.01*src.Float64()
		iDB := 1.5 + 100*src.Float64()
		fit, err := markov.FitThreePoint(sDB, iDB, sDB*5, markov.FitOptions{GridPoints: 40})
		if err != nil {
			return false
		}
		n := 1 + src.Intn(30)
		z := 0.1 + src.Float64()
		m := twoTier(markov.Poisson(1/sFS), fit.MAP, z, n)
		got, err := SolveNetwork(m, ctmc.Options{})
		if err != nil {
			return false
		}
		if got.Throughput <= 0 || got.Throughput > 1/math.Max(sFS, sDB)+1e-9 {
			return false
		}
		total := got.QueueLens[0] + got.QueueLens[1] + got.Thinking
		if math.Abs(total-float64(n)) > 1e-6*float64(n) {
			return false
		}
		// Utilization law: U_i = X * S_i.
		if math.Abs(got.Utils[0]-got.Throughput*sFS) > 1e-5 {
			return false
		}
		if math.Abs(got.Utils[1]-got.Throughput*sDB) > 1e-5 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

func TestQueueDistributionsConsistent(t *testing.T) {
	fit, err := markov.FitThreePoint(0.005, 60, 0.03, markov.FitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	m := twoTier(markov.Poisson(1/0.004), fit.MAP, 0.5, 20)
	got, err := SolveNetwork(m, ctmc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, dist := range [][]float64{got.QueueDists[0], got.QueueDists[1]} {
		if len(dist) != 21 {
			t.Fatalf("distribution length = %d, want 21", len(dist))
		}
		sum, mean := 0.0, 0.0
		for k, p := range dist {
			if p < -1e-12 {
				t.Fatalf("negative probability %v at %d", p, k)
			}
			sum += p
			mean += float64(k) * p
		}
		if math.Abs(sum-1) > 1e-6 {
			t.Errorf("distribution sums to %v", sum)
		}
	}
	// Mean of the distribution must match the reported mean queue length.
	meanF := 0.0
	for k, p := range got.QueueDists[0] {
		meanF += float64(k) * p
	}
	if math.Abs(meanF-got.QueueLens[0]) > 1e-9 {
		t.Errorf("dist mean %v vs QueueFront %v", meanF, got.QueueLens[0])
	}
	// P(idle) complements utilization.
	if math.Abs(got.QueueDists[0][0]-(1-got.Utils[0])) > 1e-9 {
		t.Errorf("P(empty front) = %v, 1-U = %v", got.QueueDists[0][0], 1-got.Utils[0])
	}
}

func TestBurstyQueueTailHeavierThanPoisson(t *testing.T) {
	// Burstiness shows up as mass at high queue lengths (the model-side
	// analogue of the paper's Fig. 6 spikes).
	n := 30
	front := markov.Poisson(1 / 0.004)
	fit, err := markov.FitThreePoint(0.005, 150, 0.03, markov.FitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	smooth, err := SolveNetwork(twoTier(front, markov.Poisson(1/0.005), 0.5, n), ctmc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	bursty, err := SolveNetwork(twoTier(front, fit.MAP, 0.5, n), ctmc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	tail := func(dist []float64, from int) float64 {
		s := 0.0
		for k := from; k < len(dist); k++ {
			s += dist[k]
		}
		return s
	}
	tb, ts := tail(bursty.QueueDists[1], 20), tail(smooth.QueueDists[1], 20)
	t.Logf("P(Qdb >= 20): bursty %.4g vs poisson %.4g", tb, ts)
	if tb <= ts {
		t.Errorf("bursty DB tail %v should exceed Poisson tail %v", tb, ts)
	}
}

func TestBoundsBracketExactSolution(t *testing.T) {
	fitF, err := markov.FitThreePoint(0.006, 30, 0.02, markov.FitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	fitD, err := markov.FitThreePoint(0.004, 120, 0.025, markov.FitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{5, 25, 75} {
		m := twoTier(fitF.MAP, fitD.MAP, 0.5, n)
		b, err := NetworkBounds(m)
		if err != nil {
			t.Fatal(err)
		}
		exact, err := SolveNetwork(m, ctmc.Options{})
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("N=%3d lower=%7.2f exact=%7.2f upper=%7.2f", n, b.LowerX, exact.Throughput, b.UpperX)
		if exact.Throughput > b.UpperX*1.001 {
			t.Errorf("N=%d: exact X %v above upper bound %v", n, exact.Throughput, b.UpperX)
		}
		if exact.Throughput < b.LowerX*0.999 {
			t.Errorf("N=%d: exact X %v below lower bound %v", n, exact.Throughput, b.LowerX)
		}
		if b.LowerX > b.UpperX {
			t.Errorf("N=%d: bounds inverted", n)
		}
	}
}

func TestBoundsScaleToLargePopulations(t *testing.T) {
	// The paper's Z=7s scenario needs ~1200 EBs — far beyond exact CTMC
	// reach; bounds must answer instantly.
	fitD, err := markov.FitThreePoint(0.004, 300, 0.03, markov.FitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sweep, err := NetworkBoundsSweep(frontDB(markov.Poisson(1/0.006), fitD.MAP), 7.0, []int{300, 600, 1200})
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range sweep {
		if b.LowerX <= 0 || b.UpperX < b.LowerX {
			t.Errorf("N=%d: invalid bounds %+v", b.Customers, b)
		}
	}
	// At 1200 EBs the upper bound approaches the bottleneck ceiling.
	last := sweep[len(sweep)-1]
	if last.UpperX < 0.9/0.006 {
		t.Errorf("upper bound at 1200 EBs = %v, want near bottleneck 1/S", last.UpperX)
	}
}

func TestBoundsValidation(t *testing.T) {
	if _, err := NetworkBounds(NetworkModel{}); err == nil {
		t.Error("expected validation error")
	}
}
