package mapqn

import (
	"context"
	"math"
	"testing"

	"repro/internal/ctmc"
	"repro/internal/markov"
	"repro/internal/mva"
)

func fitMAP(t testing.TB, mean, i, p95 float64) *markov.MAP {
	t.Helper()
	fit, err := markov.FitThreePoint(mean, i, p95, markov.FitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return fit.MAP
}

// TestNetworkMatchesLegacyTwoTier is the refactor's safety net: the
// generic K-station solver instantiated at K=2 must reproduce the
// hand-built two-station reference solver to within 1e-9 on every
// metric. The small instance is solved by the direct dense method, the
// large one by Gauss-Seidel, covering both solver paths.
func TestNetworkMatchesLegacyTwoTier(t *testing.T) {
	front := fitMAP(t, 0.004, 40, 0.02)
	db := fitMAP(t, 0.005, 150, 0.04)
	for _, n := range []int{1, 8, 12, 40} {
		m := twoTier(front, db, 0.5, n)
		legacy, err := solveLegacy(m, ctmc.Options{})
		if err != nil {
			t.Fatal(err)
		}
		generic, err := SolveNetwork(m, ctmc.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if generic.States != legacy.States {
			t.Fatalf("N=%d: state count %d != legacy %d", n, generic.States, legacy.States)
		}
		close := func(name string, got, want float64) {
			if math.Abs(got-want) > 1e-9*math.Max(1, math.Abs(want)) {
				t.Errorf("N=%d: %s = %v, legacy %v", n, name, got, want)
			}
		}
		close("X", generic.Throughput, legacy.Throughput)
		close("R", generic.ResponseTime, legacy.ResponseTime)
		close("UF", generic.Utils[0], legacy.Utils[0])
		close("UD", generic.Utils[1], legacy.Utils[1])
		close("QF", generic.QueueLens[0], legacy.QueueLens[0])
		close("QD", generic.QueueLens[1], legacy.QueueLens[1])
		close("think", generic.Thinking, legacy.Thinking)
		for k := range legacy.QueueDists[0] {
			close("distF", generic.QueueDists[0][k], legacy.QueueDists[0][k])
			close("distD", generic.QueueDists[1][k], legacy.QueueDists[1][k])
		}
	}
}

// TestGeneratorMatchesLegacyTwoTier checks structural equivalence at the
// generator level: the K=2 generic state layout is identical to the
// reference triangular layout, so the two sparse generators must agree
// entry by entry.
func TestGeneratorMatchesLegacyTwoTier(t *testing.T) {
	m := twoTier(fitMAP(t, 0.004, 30, 0.02), fitMAP(t, 0.006, 90, 0.03), 0.5, 9)
	legacyGen, _ := buildGenerator(m)
	maps := []*markov.MAP{m.Stations[0].MAP, m.Stations[1].MAP}
	genericGen, _, err := buildGeneratorN(context.Background(), m, maps)
	if err != nil {
		t.Fatal(err)
	}
	if legacyGen.N != genericGen.N {
		t.Fatalf("dimension %d != %d", genericGen.N, legacyGen.N)
	}
	lr, gr := legacyGen.RowSums(), genericGen.RowSums()
	for r := 0; r < legacyGen.N; r++ {
		if math.Abs(lr[r]-gr[r]) > 1e-9 {
			t.Fatalf("row %d sum %v != %v", r, gr[r], lr[r])
		}
	}
	// Dense comparison of every entry.
	for r := 0; r < legacyGen.N; r++ {
		want := make(map[int]float64)
		for k := legacyGen.RowPtr[r]; k < legacyGen.RowPtr[r+1]; k++ {
			want[legacyGen.ColIdx[k]] += legacyGen.Vals[k]
		}
		got := make(map[int]float64)
		for k := genericGen.RowPtr[r]; k < genericGen.RowPtr[r+1]; k++ {
			got[genericGen.ColIdx[k]] += genericGen.Vals[k]
		}
		for c, v := range want {
			if math.Abs(got[c]-v) > 1e-12*math.Max(1, math.Abs(v)) {
				t.Fatalf("entry (%d,%d): generic %v, legacy %v", r, c, got[c], v)
			}
			delete(got, c)
		}
		for c, v := range got {
			if math.Abs(v) > 1e-12 {
				t.Fatalf("generic has extra entry (%d,%d) = %v", r, c, v)
			}
		}
	}
}

// TestThreeStationPoissonReducesToMVA cross-validates the K=3 CTMC
// against exact MVA: with exponential service at every station the
// network is product-form, so the two solutions must coincide.
func TestThreeStationPoissonReducesToMVA(t *testing.T) {
	demands := []float64{0.004, 0.003, 0.006}
	z := 0.5
	stations := []Station{
		{Name: "front", MAP: markov.Poisson(1 / demands[0])},
		{Name: "app", MAP: markov.Poisson(1 / demands[1])},
		{Name: "db", MAP: markov.Poisson(1 / demands[2])},
	}
	net := mva.ModelN(demands, []string{"front", "app", "db"}, z)
	for _, n := range []int{1, 5, 20, 50} {
		got, err := SolveNetwork(NetworkModel{Stations: stations, ThinkTime: z, Customers: n}, ctmc.Options{})
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
		for i := range demands {
			if math.Abs(got.Utils[i]-want.Utilizations[i]) > 1e-6 {
				t.Errorf("N=%d: station %d util %v, MVA %v", n, i, got.Utils[i], want.Utilizations[i])
			}
			if rel := math.Abs(got.QueueLens[i]-want.QueueLengths[i]) / (want.QueueLengths[i] + 1e-12); rel > 1e-5 {
				t.Errorf("N=%d: station %d queue %v, MVA %v", n, i, got.QueueLens[i], want.QueueLengths[i])
			}
		}
	}
}

// TestThreeStationSanity checks the structural invariants of a bursty
// K=3 network: throughput monotone in N, utilizations in [0,1], queue
// lengths plus thinking customers conserving the population, and
// per-station distributions consistent with their means.
func TestThreeStationSanity(t *testing.T) {
	stations := []Station{
		{Name: "front", MAP: markov.Poisson(1 / 0.004)},
		{Name: "app", MAP: fitMAP(t, 0.005, 120, 0.03)}, // bursty middle tier
		{Name: "db", MAP: markov.Poisson(1 / 0.003)},
	}
	mets, err := SolveNetworkSweep(stations, 0.5, []int{1, 4, 10, 20, 35}, ctmc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	prev := 0.0
	for i, met := range mets {
		n := []int{1, 4, 10, 20, 35}[i]
		if met.Throughput < prev-1e-9 {
			t.Errorf("throughput decreased at sweep index %d: %v -> %v", i, prev, met.Throughput)
		}
		prev = met.Throughput
		total := met.Thinking
		for s := range stations {
			u := met.Utils[s]
			if u < 0 || u > 1+1e-9 {
				t.Errorf("N=%d: station %d utilization %v out of range", n, s, u)
			}
			total += met.QueueLens[s]
			// Distribution consistency: sums to 1, mean matches, and
			// P(empty) complements utilization.
			sum, mean := 0.0, 0.0
			for k, p := range met.QueueDists[s] {
				if p < -1e-12 {
					t.Fatalf("negative probability %v", p)
				}
				sum += p
				mean += float64(k) * p
			}
			if math.Abs(sum-1) > 1e-6 {
				t.Errorf("N=%d: station %d distribution sums to %v", n, s, sum)
			}
			if math.Abs(mean-met.QueueLens[s]) > 1e-8 {
				t.Errorf("N=%d: station %d dist mean %v vs queue %v", n, s, mean, met.QueueLens[s])
			}
			if math.Abs(met.QueueDists[s][0]-(1-met.Utils[s])) > 1e-8 {
				t.Errorf("N=%d: station %d P(empty) %v vs 1-U %v", n, s, met.QueueDists[s][0], 1-met.Utils[s])
			}
		}
		if math.Abs(total-float64(n)) > 1e-6*float64(n) {
			t.Errorf("N=%d: customer conservation violated: %v", n, total)
		}
		// Little's law on the think station.
		if math.Abs(met.Thinking-met.Throughput*0.5) > 1e-5*math.Max(1, met.Thinking) {
			t.Errorf("N=%d: think-station Little's law: %v vs %v", n, met.Thinking, met.Throughput*0.5)
		}
	}
}

// TestBurstyMiddleTierDegradesThroughput extends the paper's core claim
// to three tiers: making the middle tier bursty at identical mean
// demands must cost throughput.
func TestBurstyMiddleTierDegradesThroughput(t *testing.T) {
	front := markov.Poisson(1 / 0.004)
	db := markov.Poisson(1 / 0.003)
	smoothApp := markov.Poisson(1 / 0.006)
	burstyApp := fitMAP(t, 0.006, 200, 0.05)
	n := 40
	smooth, err := SolveNetwork(NetworkModel{
		Stations:  []Station{{MAP: front}, {MAP: smoothApp}, {MAP: db}},
		ThinkTime: 0.5, Customers: n,
	}, ctmc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	bursty, err := SolveNetwork(NetworkModel{
		Stations:  []Station{{MAP: front}, {MAP: burstyApp}, {MAP: db}},
		ThinkTime: 0.5, Customers: n,
	}, ctmc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("X smooth = %.1f, X bursty = %.1f", smooth.Throughput, bursty.Throughput)
	if bursty.Throughput >= smooth.Throughput {
		t.Errorf("bursty X = %v should be below smooth X = %v", bursty.Throughput, smooth.Throughput)
	}
	if bursty.QueueLens[1] <= smooth.QueueLens[1] {
		t.Errorf("bursty app queue %v should exceed smooth %v", bursty.QueueLens[1], smooth.QueueLens[1])
	}
}

// TestStateSpaceNRoundTrip exercises the combinatorial ranking for K=3
// with heterogeneous phase counts.
func TestStateSpaceNRoundTrip(t *testing.T) {
	s := newStateSpaceN(6, []int{2, 3, 2})
	seen := make(map[int]bool)
	pop := make([]int, 3)
	phase := make([]int, 3)
	count := 0
	for n0 := 0; n0 <= 6; n0++ {
		for n1 := 0; n1 <= 6-n0; n1++ {
			for n2 := 0; n2 <= 6-n0-n1; n2++ {
				for j0 := 0; j0 < 2; j0++ {
					for j1 := 0; j1 < 3; j1++ {
						for j2 := 0; j2 < 2; j2++ {
							p := (j0*3+j1)*2 + j2
							idx := s.index([]int{n0, n1, n2}, p)
							if idx < 0 || idx >= s.size() {
								t.Fatalf("index out of range: %d", idx)
							}
							if seen[idx] {
								t.Fatalf("duplicate index %d", idx)
							}
							seen[idx] = true
							s.decode(idx, pop, phase)
							if pop[0] != n0 || pop[1] != n1 || pop[2] != n2 ||
								phase[0] != j0 || phase[1] != j1 || phase[2] != j2 {
								t.Fatalf("decode(%d) = %v/%v, want [%d %d %d]/[%d %d %d]",
									idx, pop, phase, n0, n1, n2, j0, j1, j2)
							}
							count++
						}
					}
				}
			}
		}
	}
	if count != s.size() {
		t.Fatalf("enumerated %d states, size() = %d", count, s.size())
	}
}

// TestNetworkGeneratorValid checks CTMC well-formedness for a bursty
// K=3 instance.
func TestNetworkGeneratorValid(t *testing.T) {
	nm := NetworkModel{
		Stations: []Station{
			{Name: "front", MAP: markov.Poisson(1 / 0.004)},
			{Name: "app", MAP: fitMAP(t, 0.005, 80, 0.03)},
			{Name: "db", MAP: fitMAP(t, 0.003, 30, 0.01)},
		},
		ThinkTime: 0.5,
		Customers: 8,
	}
	maps := make([]*markov.MAP, len(nm.Stations))
	for i, st := range nm.Stations {
		maps[i] = st.MAP
	}
	gen, _, err := buildGeneratorN(context.Background(), nm, maps)
	if err != nil {
		t.Fatal(err)
	}
	if err := ctmc.ValidateGenerator(gen); err != nil {
		t.Errorf("generator invalid: %v", err)
	}
}

// TestVisitRatioScalesDemand: a station visited twice per cycle behaves
// like one with twice the demand; under exponential service this is
// exact and must match MVA on the aggregated demands.
func TestVisitRatioScalesDemand(t *testing.T) {
	z := 0.5
	stations := []Station{
		{Name: "front", MAP: markov.Poisson(1 / 0.004), Visits: 1},
		{Name: "db", MAP: markov.Poisson(1 / 0.003), Visits: 2},
	}
	got, err := SolveNetwork(NetworkModel{Stations: stations, ThinkTime: z, Customers: 20}, ctmc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := mva.Solve(mva.ModelN([]float64{0.004, 0.006}, nil, z), 20)
	if err != nil {
		t.Fatal(err)
	}
	if rel := math.Abs(got.Throughput-want.Throughput) / want.Throughput; rel > 1e-6 {
		t.Errorf("visit-scaled X = %v, MVA on aggregated demands = %v", got.Throughput, want.Throughput)
	}
}

// TestNetworkBoundsBracketThreeTier checks that the product-form bounds
// bracket the exact K=3 solution.
func TestNetworkBoundsBracketThreeTier(t *testing.T) {
	stations := []Station{
		{Name: "front", MAP: fitMAP(t, 0.006, 30, 0.02)},
		{Name: "app", MAP: fitMAP(t, 0.004, 120, 0.025)},
		{Name: "db", MAP: markov.Poisson(1 / 0.003)},
	}
	for _, n := range []int{5, 20, 40} {
		m := NetworkModel{Stations: stations, ThinkTime: 0.5, Customers: n}
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
	}
}

// TestNetworkValidation covers the N-tier parameter checks.
func TestNetworkValidation(t *testing.T) {
	p := markov.Poisson(1)
	cases := []NetworkModel{
		{Stations: nil, ThinkTime: 1, Customers: 1},
		{Stations: []Station{{MAP: nil}}, ThinkTime: 1, Customers: 1},
		{Stations: []Station{{MAP: p}}, ThinkTime: -1, Customers: 1},
		{Stations: []Station{{MAP: p}}, ThinkTime: 1, Customers: 0},
		{Stations: []Station{{MAP: p, Visits: -1}}, ThinkTime: 1, Customers: 1},
	}
	for i, m := range cases {
		if err := m.Validate(); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
}

// TestSingleStationNetwork: K=1 degenerates to a machine-repair-style
// M/MAP/1//N system; with exponential service the closed form at N=1 is
// X = 1/(Z+S).
func TestSingleStationNetwork(t *testing.T) {
	got, err := SolveNetwork(NetworkModel{
		Stations:  []Station{{Name: "only", MAP: markov.Poisson(1 / 0.2)}},
		ThinkTime: 0.8,
		Customers: 1,
	}, ctmc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := 1 / (0.8 + 0.2)
	if math.Abs(got.Throughput-want) > 1e-9 {
		t.Errorf("X = %v, want %v", got.Throughput, want)
	}
}
