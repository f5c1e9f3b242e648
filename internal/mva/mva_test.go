package mva

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/xrand"
)

func TestSolveSingleQueueKnown(t *testing.T) {
	// One queue, no think time: machine-repairman style closed M/M/1.
	// With one customer: X = 1/D, R = D, Q = 1.
	net := Network{Demands: []float64{0.5}}
	res, err := Solve(net, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Throughput-2) > 1e-12 {
		t.Errorf("X(1) = %v, want 2", res.Throughput)
	}
	if math.Abs(res.QueueLengths[0]-1) > 1e-12 {
		t.Errorf("Q(1) = %v, want 1", res.QueueLengths[0])
	}
	// With n customers and a single queue, all n are queued: X = 1/D.
	res, err = Solve(net, 10)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Throughput-2) > 1e-12 {
		t.Errorf("X(10) = %v, want 2 (saturated)", res.Throughput)
	}
	if math.Abs(res.QueueLengths[0]-10) > 1e-12 {
		t.Errorf("Q(10) = %v, want 10", res.QueueLengths[0])
	}
}

func TestSolveInterativeVsKnownTwoQueue(t *testing.T) {
	// Balanced two-queue network, N=2, no think time.
	// MVA: R_i(1) = D, X(1) = 1/(2D), Q_i(1) = 1/2.
	// R_i(2) = D(1+1/2) = 1.5D, X(2) = 2/(3D), Q_i(2) = 1.
	d := 0.3
	net := Network{Demands: []float64{d, d}}
	sweep, err := SolveSweep(net, 2)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sweep[0].Throughput-1/(2*d)) > 1e-12 {
		t.Errorf("X(1) = %v, want %v", sweep[0].Throughput, 1/(2*d))
	}
	if math.Abs(sweep[1].Throughput-2/(3*d)) > 1e-12 {
		t.Errorf("X(2) = %v, want %v", sweep[1].Throughput, 2/(3*d))
	}
	if math.Abs(sweep[1].QueueLengths[0]-1) > 1e-12 {
		t.Errorf("Q1(2) = %v, want 1", sweep[1].QueueLengths[0])
	}
}

func TestSolveWithThinkTime(t *testing.T) {
	// Model of the paper's testbed shape: think time dominates at low N.
	net := ModelN([]float64{0.002, 0.004}, nil, 0.5)
	res, err := Solve(net, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := 1 / (0.5 + 0.006)
	if math.Abs(res.Throughput-want) > 1e-12 {
		t.Errorf("X(1) = %v, want %v", res.Throughput, want)
	}
	// Utilization law holds.
	if math.Abs(res.Utilizations[1]-res.Throughput*0.004) > 1e-15 {
		t.Error("utilization law violated")
	}
}

func TestSolveValidation(t *testing.T) {
	if _, err := Solve(Network{}, 5); err == nil {
		t.Error("expected error for empty network")
	}
	if _, err := Solve(Network{Demands: []float64{-1}}, 5); err == nil {
		t.Error("expected error for negative demand")
	}
	if _, err := Solve(Network{Demands: []float64{1}, ThinkTime: -1}, 5); err == nil {
		t.Error("expected error for negative think time")
	}
	if _, err := Solve(Network{Demands: []float64{0, 0}}, 5); err == nil {
		t.Error("expected error for all-zero demands")
	}
	if _, err := Solve(Network{Demands: []float64{1}}, 0); err == nil {
		t.Error("expected error for zero population")
	}
	if _, err := Solve(Network{Demands: []float64{1}, Names: []string{"a", "b"}}, 1); err == nil {
		t.Error("expected error for name count mismatch")
	}
}

func TestThroughputMonotoneAndBounded(t *testing.T) {
	net := ModelN([]float64{0.003, 0.006}, nil, 0.5)
	sweep, err := SolveSweep(net, 200)
	if err != nil {
		t.Fatal(err)
	}
	bound, err := UpperBound(net, 200)
	if err != nil {
		t.Fatal(err)
	}
	prev := 0.0
	for _, r := range sweep {
		if r.Throughput < prev-1e-12 {
			t.Fatalf("throughput not monotone at N=%d", r.Customers)
		}
		prev = r.Throughput
		ub, err := UpperBound(net, r.Customers)
		if err != nil {
			t.Fatal(err)
		}
		if r.Throughput > ub+1e-9 {
			t.Fatalf("X(%d) = %v exceeds bound %v", r.Customers, r.Throughput, ub)
		}
	}
	// Saturated throughput approaches the bottleneck bound.
	if sweep[199].Throughput < 0.95*bound {
		t.Errorf("X(200) = %v, want close to bound %v", sweep[199].Throughput, bound)
	}
}

func TestLittlesLawHolds(t *testing.T) {
	net := ModelN([]float64{0.004, 0.003}, nil, 0.25)
	for _, n := range []int{1, 5, 50, 150} {
		res, err := Solve(net, n)
		if err != nil {
			t.Fatal(err)
		}
		// N = X * (R + Z).
		lhs := float64(n)
		rhs := res.Throughput * (res.ResponseTime + net.ThinkTime)
		if math.Abs(lhs-rhs) > 1e-9*lhs {
			t.Errorf("N=%d: Little's law violated: %v vs %v", n, lhs, rhs)
		}
	}
}

func TestSolveApproxMatchesExact(t *testing.T) {
	net := ModelN([]float64{0.002, 0.005}, nil, 0.5)
	for _, n := range []int{1, 10, 100} {
		exact, err := Solve(net, n)
		if err != nil {
			t.Fatal(err)
		}
		approx, err := SolveApprox(net, n, 0)
		if err != nil {
			t.Fatal(err)
		}
		rel := math.Abs(approx.Throughput-exact.Throughput) / exact.Throughput
		if rel > 0.05 {
			t.Errorf("N=%d: approximate MVA off by %v", n, rel)
		}
	}
}

func TestSolveApproxValidation(t *testing.T) {
	if _, err := SolveApprox(Network{}, 5, 0); err == nil {
		t.Error("expected error for empty network")
	}
	if _, err := SolveApprox(Network{Demands: []float64{1}}, 0, 0); err == nil {
		t.Error("expected error for zero population")
	}
}

func TestAsymptoticBounds(t *testing.T) {
	net := ModelN([]float64{0.002, 0.004}, nil, 0.5)
	b, err := AsymptoticBounds(net, 100)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(b.MaxThroughput-250) > 1e-9 {
		t.Errorf("max throughput = %v, want 250", b.MaxThroughput)
	}
	if math.Abs(b.Saturation-(0.506/0.004)) > 1e-9 {
		t.Errorf("saturation = %v, want %v", b.Saturation, 0.506/0.004)
	}
	if _, err := AsymptoticBounds(Network{}, 1); err == nil {
		t.Error("expected error for empty network")
	}
	if _, err := UpperBound(Network{}, 1); err == nil {
		t.Error("expected error for empty network")
	}
}

func TestSolveMulticlassSingleClassAgrees(t *testing.T) {
	// Multiclass with one class must equal single-class MVA.
	net := ModelN([]float64{0.004, 0.002}, nil, 0.3)
	mnet := MultiNetwork{
		Demands:    [][]float64{{0.004, 0.002}},
		ThinkTimes: []float64{0.3},
	}
	for _, n := range []int{1, 7, 40} {
		single, err := Solve(net, n)
		if err != nil {
			t.Fatal(err)
		}
		multi, err := SolveMulticlass(mnet, []int{n})
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(single.Throughput-multi.Throughput[0]) > 1e-9 {
			t.Errorf("N=%d: multi X = %v, single X = %v", n, multi.Throughput[0], single.Throughput)
		}
	}
}

func TestSolveMulticlassTwoClasses(t *testing.T) {
	mnet := MultiNetwork{
		Demands:    [][]float64{{0.01, 0.002}, {0.001, 0.02}},
		ThinkTimes: []float64{0.1, 0.2},
	}
	res, err := SolveMulticlass(mnet, []int{10, 15})
	if err != nil {
		t.Fatal(err)
	}
	// Per-class Little's law.
	for c := 0; c < 2; c++ {
		lhs := float64(res.Population[c])
		rhs := res.Throughput[c] * (res.ResponseTime[c] + mnet.ThinkTimes[c])
		if math.Abs(lhs-rhs) > 1e-9*lhs {
			t.Errorf("class %d: Little's law violated: %v vs %v", c, lhs, rhs)
		}
	}
	// Utilizations must be below 1.
	for i, u := range res.Utilizations {
		if u < 0 || u > 1 {
			t.Errorf("utilization[%d] = %v out of [0,1]", i, u)
		}
	}
}

func TestSolveMulticlassValidation(t *testing.T) {
	if _, err := SolveMulticlass(MultiNetwork{}, nil); err == nil {
		t.Error("expected error for empty network")
	}
	bad := MultiNetwork{Demands: [][]float64{{1}, {1, 2}}, ThinkTimes: []float64{0, 0}}
	if _, err := SolveMulticlass(bad, []int{1, 1}); err == nil {
		t.Error("expected error for ragged demands")
	}
	ok := MultiNetwork{Demands: [][]float64{{1}}, ThinkTimes: []float64{0}}
	if _, err := SolveMulticlass(ok, []int{1, 2}); err == nil {
		t.Error("expected error for population length mismatch")
	}
	if _, err := SolveMulticlass(ok, []int{-1}); err == nil {
		t.Error("expected error for negative population")
	}
}

func TestSolveMulticlassZeroPopulationClass(t *testing.T) {
	mnet := MultiNetwork{
		Demands:    [][]float64{{0.01, 0.002}, {0.001, 0.02}},
		ThinkTimes: []float64{0.1, 0.2},
	}
	res, err := SolveMulticlass(mnet, []int{5, 0})
	if err != nil {
		t.Fatal(err)
	}
	if res.Throughput[1] != 0 {
		t.Errorf("empty class throughput = %v, want 0", res.Throughput[1])
	}
	if res.Throughput[0] <= 0 {
		t.Error("non-empty class should have positive throughput")
	}
}

// Property: MVA results satisfy the utilization law and queue lengths sum
// to the population.
func TestPropMVAConservation(t *testing.T) {
	f := func(seed int64) bool {
		src := xrand.New(seed)
		m := 1 + src.Intn(5)
		demands := make([]float64, m)
		for i := range demands {
			demands[i] = 0.001 + 0.05*src.Float64()
		}
		net := Network{Demands: demands, ThinkTime: src.Float64()}
		n := 1 + src.Intn(80)
		res, err := Solve(net, n)
		if err != nil {
			return false
		}
		// Sum of queue lengths + thinking customers = N.
		sumQ := 0.0
		for _, q := range res.QueueLengths {
			sumQ += q
		}
		thinking := res.Throughput * net.ThinkTime
		if math.Abs(sumQ+thinking-float64(n)) > 1e-6*float64(n) {
			return false
		}
		for i := range demands {
			if math.Abs(res.Utilizations[i]-res.Throughput*demands[i]) > 1e-9 {
				return false
			}
			if res.Utilizations[i] > 1+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestSolveMulticlassApproxMatchesExact(t *testing.T) {
	mnet := MultiNetwork{
		Demands:    [][]float64{{0.01, 0.002}, {0.001, 0.02}},
		ThinkTimes: []float64{0.1, 0.2},
	}
	pop := []int{15, 10}
	exact, err := SolveMulticlass(mnet, pop)
	if err != nil {
		t.Fatal(err)
	}
	approx, err := SolveMulticlassApprox(mnet, pop, 0)
	if err != nil {
		t.Fatal(err)
	}
	for c := 0; c < 2; c++ {
		rel := math.Abs(approx.Throughput[c]-exact.Throughput[c]) / exact.Throughput[c]
		if rel > 0.08 {
			t.Errorf("class %d: approx X = %v, exact %v (rel %v)",
				c, approx.Throughput[c], exact.Throughput[c], rel)
		}
	}
}

func TestSolveMulticlassApproxLargePopulation(t *testing.T) {
	// A population far beyond exact-lattice reach must solve instantly
	// and respect per-station utilization bounds.
	mnet := MultiNetwork{
		Demands:    [][]float64{{0.004, 0.002}, {0.002, 0.005}, {0.003, 0.001}},
		ThinkTimes: []float64{0.5, 0.7, 0.3},
	}
	res, err := SolveMulticlassApprox(mnet, []int{500, 400, 300}, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i, u := range res.Utilizations {
		if u < 0 || u > 1+1e-6 {
			t.Errorf("utilization[%d] = %v out of range", i, u)
		}
	}
	// Per-class Little's law.
	for c := 0; c < 3; c++ {
		lhs := float64(res.Population[c])
		rhs := res.Throughput[c] * (res.ResponseTime[c] + mnet.ThinkTimes[c])
		if math.Abs(lhs-rhs) > 1e-6*lhs {
			t.Errorf("class %d: Little's law violated", c)
		}
	}
}

func TestSolveMulticlassApproxValidation(t *testing.T) {
	if _, err := SolveMulticlassApprox(MultiNetwork{}, nil, 0); err == nil {
		t.Error("expected error for empty network")
	}
	ok := MultiNetwork{Demands: [][]float64{{1}}, ThinkTimes: []float64{0}}
	if _, err := SolveMulticlassApprox(ok, []int{1, 2}, 0); err == nil {
		t.Error("expected error for population mismatch")
	}
	if _, err := SolveMulticlassApprox(ok, []int{-1}, 0); err == nil {
		t.Error("expected error for negative population")
	}
	// Zero-population class must be handled.
	res, err := SolveMulticlassApprox(MultiNetwork{
		Demands:    [][]float64{{0.01}, {0.02}},
		ThinkTimes: []float64{0.1, 0.1},
	}, []int{5, 0}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Throughput[1] != 0 {
		t.Errorf("empty class throughput = %v", res.Throughput[1])
	}
}

func TestSolveMultiServerSingleServerAgrees(t *testing.T) {
	// With one server everywhere the load-dependent recursion must equal
	// plain MVA.
	net := ModelN([]float64{0.004, 0.002}, nil, 0.3)
	ms := MultiServerNetwork{
		Demands:   []float64{0.004, 0.002},
		Servers:   []int{1, 1},
		ThinkTime: 0.3,
	}
	for _, n := range []int{1, 10, 60} {
		plain, err := Solve(net, n)
		if err != nil {
			t.Fatal(err)
		}
		multi, err := SolveMultiServer(ms, n)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(plain.Throughput-multi.Throughput) > 1e-9*plain.Throughput {
			t.Errorf("N=%d: multiserver X = %v, plain X = %v", n, multi.Throughput, plain.Throughput)
		}
	}
}

func TestSolveMultiServerRaisesCapacity(t *testing.T) {
	// Doubling the bottleneck's servers must raise saturated throughput
	// toward 2/D.
	single := MultiServerNetwork{
		Demands: []float64{0.01, 0.002}, Servers: []int{1, 1}, ThinkTime: 0.2,
	}
	double := MultiServerNetwork{
		Demands: []float64{0.01, 0.002}, Servers: []int{2, 1}, ThinkTime: 0.2,
	}
	s1, err := SolveMultiServer(single, 150)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := SolveMultiServer(double, 150)
	if err != nil {
		t.Fatal(err)
	}
	if s2.Throughput < 1.5*s1.Throughput {
		t.Errorf("2 servers X = %v, want well above 1 server X = %v", s2.Throughput, s1.Throughput)
	}
	if s2.Throughput > 2/0.01+1e-9 {
		t.Errorf("X = %v exceeds 2-server bound %v", s2.Throughput, 2/0.01)
	}
	// Per-server utilization below 1.
	for i, u := range s2.Utilizations {
		if u < 0 || u > 1+1e-9 {
			t.Errorf("utilization[%d] = %v out of range", i, u)
		}
	}
}

func TestSolveMultiServerMMc(t *testing.T) {
	// Machine repairman with c=2 and N=2: no queueing ever, so
	// X = N/(Z + D) exactly.
	net := MultiServerNetwork{Demands: []float64{0.5}, Servers: []int{2}, ThinkTime: 1}
	res, err := SolveMultiServer(net, 2)
	if err != nil {
		t.Fatal(err)
	}
	want := 2.0 / 1.5
	if math.Abs(res.Throughput-want) > 1e-9 {
		t.Errorf("X = %v, want %v", res.Throughput, want)
	}
}

func TestSolveMultiServerLittlesLaw(t *testing.T) {
	net := MultiServerNetwork{
		Demands: []float64{0.006, 0.003}, Servers: []int{3, 2}, ThinkTime: 0.4,
	}
	for _, n := range []int{1, 20, 120} {
		res, err := SolveMultiServer(net, n)
		if err != nil {
			t.Fatal(err)
		}
		lhs := float64(n)
		rhs := res.Throughput * (res.ResponseTime + net.ThinkTime)
		if math.Abs(lhs-rhs) > 1e-6*lhs {
			t.Errorf("N=%d: Little's law violated: %v vs %v", n, lhs, rhs)
		}
		sumQ := 0.0
		for _, q := range res.QueueLengths {
			sumQ += q
		}
		if math.Abs(sumQ+res.Throughput*net.ThinkTime-lhs) > 1e-6*lhs {
			t.Errorf("N=%d: customer conservation violated", n)
		}
	}
}

func TestSolveMultiServerValidation(t *testing.T) {
	if _, err := SolveMultiServer(MultiServerNetwork{}, 1); err == nil {
		t.Error("expected error for empty network")
	}
	bad := MultiServerNetwork{Demands: []float64{1}, Servers: []int{0}}
	if _, err := SolveMultiServer(bad, 1); err == nil {
		t.Error("expected error for zero servers")
	}
	mismatch := MultiServerNetwork{Demands: []float64{1}, Servers: []int{1, 2}}
	if _, err := SolveMultiServer(mismatch, 1); err == nil {
		t.Error("expected error for length mismatch")
	}
	ok := MultiServerNetwork{Demands: []float64{1}, Servers: []int{1}}
	if _, err := SolveMultiServer(ok, 0); err == nil {
		t.Error("expected error for zero population")
	}
	zeros := MultiServerNetwork{Demands: []float64{0}, Servers: []int{1}}
	if _, err := SolveMultiServer(zeros, 1); err == nil {
		t.Error("expected error for all-zero demands")
	}
	neg := MultiServerNetwork{Demands: []float64{1}, Servers: []int{1}, ThinkTime: -1}
	if _, err := SolveMultiServer(neg, 1); err == nil {
		t.Error("expected error for negative think time")
	}
}

func TestModelNGeneralizesModel(t *testing.T) {
	// Station names are labels only: the paper's named front/db pair
	// must solve exactly like the same demands without names.
	two := ModelN([]float64{0.004, 0.007}, nil, 0.5)
	n2 := ModelN([]float64{0.004, 0.007}, []string{"front", "db"}, 0.5)
	for _, pop := range []int{1, 10, 80} {
		a, err := Solve(two, pop)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Solve(n2, pop)
		if err != nil {
			t.Fatal(err)
		}
		if a.Throughput != b.Throughput || a.ResponseTime != b.ResponseTime {
			t.Errorf("pop %d: named and unnamed ModelN results differ", pop)
		}
	}
	// ModelN must defensively copy its inputs.
	demands := []float64{0.1, 0.2, 0.3}
	net := ModelN(demands, []string{"a", "b", "c"}, 1)
	demands[0] = 99
	if net.Demands[0] != 0.1 {
		t.Error("ModelN aliased the caller's demand slice")
	}
	// A three-station chain: bottleneck law X <= 1/max demand.
	res, err := Solve(ModelN([]float64{0.004, 0.006, 0.003}, nil, 0.5), 200)
	if err != nil {
		t.Fatal(err)
	}
	if res.Throughput > 1/0.006+1e-9 {
		t.Errorf("K=3 X = %v exceeds bottleneck bound", res.Throughput)
	}
	if len(res.QueueLengths) != 3 || len(res.Utilizations) != 3 {
		t.Errorf("K=3 result slices have wrong length: %+v", res)
	}
}

// TestPropMulticlassDegeneratesToSingleClass is the refactor's solver-level
// equivalence property: a one-class multiclass network must reproduce the
// single-class recursion bit-for-bit (within 1e-12) — throughput, response
// time, and per-station utilizations — across randomized station counts,
// demands, think times, and populations. The multiclass lattice with C=1
// walks the same points as the single-class sweep, so any drift means the
// degenerate case broke.
func TestPropMulticlassDegeneratesToSingleClass(t *testing.T) {
	f := func(seed int64) bool {
		src := xrand.New(seed)
		m := 1 + src.Intn(6)
		demands := make([]float64, m)
		for i := range demands {
			demands[i] = 0.001 + 0.05*src.Float64()
		}
		z := src.Float64()
		n := 1 + src.Intn(60)

		single, err := Solve(Network{Demands: demands, ThinkTime: z}, n)
		if err != nil {
			t.Logf("seed %d: single-class solve: %v", seed, err)
			return false
		}
		multi, err := SolveMulticlass(MultiNetwork{
			Demands:    [][]float64{demands},
			ThinkTimes: []float64{z},
		}, []int{n})
		if err != nil {
			t.Logf("seed %d: multiclass solve: %v", seed, err)
			return false
		}

		if math.Abs(multi.Throughput[0]-single.Throughput) > 1e-12 {
			t.Logf("seed %d: X %v != %v", seed, multi.Throughput[0], single.Throughput)
			return false
		}
		if math.Abs(multi.ResponseTime[0]-single.ResponseTime) > 1e-12 {
			t.Logf("seed %d: R %v != %v", seed, multi.ResponseTime[0], single.ResponseTime)
			return false
		}
		for i := 0; i < m; i++ {
			if math.Abs(multi.Utilizations[i]-single.Utilizations[i]) > 1e-12 {
				t.Logf("seed %d: U[%d] %v != %v", seed, i, multi.Utilizations[i], single.Utilizations[i])
				return false
			}
			if math.Abs(multi.QueueLengths[i]-single.QueueLengths[i]) > 1e-12 {
				t.Logf("seed %d: Q[%d] %v != %v", seed, i, multi.QueueLengths[i], single.QueueLengths[i])
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
