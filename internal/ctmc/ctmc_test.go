package ctmc

import (
	"errors"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/matrix"
	"repro/internal/xrand"
)

// mm1kGenerator builds the birth-death generator of an M/M/1/K queue.
func mm1kGenerator(lambda, mu float64, k int) *matrix.CSR {
	var tr []matrix.Triplet
	for i := 0; i <= k; i++ {
		out := 0.0
		if i < k {
			tr = append(tr, matrix.Triplet{Row: i, Col: i + 1, Val: lambda})
			out += lambda
		}
		if i > 0 {
			tr = append(tr, matrix.Triplet{Row: i, Col: i - 1, Val: mu})
			out += mu
		}
		tr = append(tr, matrix.Triplet{Row: i, Col: i, Val: -out})
	}
	return matrix.NewCSR(k+1, tr)
}

// mm1kAnalytic returns the closed-form stationary distribution.
func mm1kAnalytic(lambda, mu float64, k int) []float64 {
	rho := lambda / mu
	pi := make([]float64, k+1)
	sum := 0.0
	for i := 0; i <= k; i++ {
		pi[i] = math.Pow(rho, float64(i))
		sum += pi[i]
	}
	for i := range pi {
		pi[i] /= sum
	}
	return pi
}

func TestSteadyStateDenseMM1K(t *testing.T) {
	q := mm1kGenerator(1, 2, 10)
	res, err := SteadyState(q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Method != "dense-lu" {
		t.Errorf("method = %s, want dense-lu for small chain", res.Method)
	}
	want := mm1kAnalytic(1, 2, 10)
	for i := range want {
		if math.Abs(res.Pi[i]-want[i]) > 1e-10 {
			t.Errorf("pi[%d] = %v, want %v", i, res.Pi[i], want[i])
		}
	}
}

func TestSteadyStateIterativeMM1K(t *testing.T) {
	// Force the iterative path with a large K.
	k := 2000
	q := mm1kGenerator(3, 4, k)
	res, err := SteadyState(q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Method == "dense-lu" {
		t.Fatalf("expected iterative method for %d states", k+1)
	}
	want := mm1kAnalytic(3, 4, k)
	for i := 0; i <= 50; i++ { // head of the distribution carries the mass
		if math.Abs(res.Pi[i]-want[i]) > 1e-7 {
			t.Errorf("pi[%d] = %v, want %v", i, res.Pi[i], want[i])
		}
	}
}

// TestSymmetricStageExhaustsMaxIter pins the end of the ladder: with
// too small a budget the forward stage hands over, the symmetric stage
// runs out, and the solve fails with ErrNoConvergence for callers to
// degrade on — there is no further fallback.
func TestSymmetricStageExhaustsMaxIter(t *testing.T) {
	q := mm1kGenerator(3, 4, 2000)
	_, err := SteadyState(q, Options{MaxIter: 4})
	if !errors.Is(err, ErrNoConvergence) {
		t.Fatalf("err = %v, want ErrNoConvergence", err)
	}
	if !strings.Contains(err.Error(), "symmetric gauss-seidel") || !strings.Contains(err.Error(), "4 iterations") {
		t.Fatalf("error %q does not name the symmetric stage and its budget", err)
	}
}

func TestSteadyStateTwoState(t *testing.T) {
	// pi = (q21, q12)/(q12+q21).
	q := matrix.NewCSR(2, []matrix.Triplet{
		{Row: 0, Col: 0, Val: -3}, {Row: 0, Col: 1, Val: 3},
		{Row: 1, Col: 0, Val: 1}, {Row: 1, Col: 1, Val: -1},
	})
	res, err := SteadyState(q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Pi[0]-0.25) > 1e-10 || math.Abs(res.Pi[1]-0.75) > 1e-10 {
		t.Errorf("pi = %v, want [0.25 0.75]", res.Pi)
	}
}

func TestValidateGenerator(t *testing.T) {
	good := mm1kGenerator(1, 2, 5)
	if err := ValidateGenerator(good); err != nil {
		t.Errorf("valid generator rejected: %v", err)
	}
	badRowSum := matrix.NewCSR(2, []matrix.Triplet{
		{Row: 0, Col: 0, Val: -1}, {Row: 0, Col: 1, Val: 2},
		{Row: 1, Col: 0, Val: 1}, {Row: 1, Col: 1, Val: -1},
	})
	if err := ValidateGenerator(badRowSum); err == nil {
		t.Error("expected row-sum error")
	}
	badSign := matrix.NewCSR(2, []matrix.Triplet{
		{Row: 0, Col: 0, Val: 1}, {Row: 0, Col: 1, Val: -1},
		{Row: 1, Col: 0, Val: 1}, {Row: 1, Col: 1, Val: -1},
	})
	if err := ValidateGenerator(badSign); err == nil {
		t.Error("expected sign error")
	}
}

func TestResidualReported(t *testing.T) {
	q := mm1kGenerator(1, 2, 100)
	res, err := SteadyState(q, Options{DenseCutoff: 10})
	if err != nil {
		t.Fatal(err)
	}
	if res.Residual > 1e-6 {
		t.Errorf("residual = %v, too large", res.Residual)
	}
	if res.Iterations == 0 {
		t.Error("iterative method should report iterations")
	}
}

// Property: solver output is a probability vector with small residual for
// random irreducible birth-death chains.
func TestPropSteadyStateIsDistribution(t *testing.T) {
	f := func(seed int64) bool {
		src := xrand.New(seed)
		k := 2 + src.Intn(200)
		lambda := 0.1 + 5*src.Float64()
		mu := 0.1 + 5*src.Float64()
		q := mm1kGenerator(lambda, mu, k)
		res, err := SteadyState(q, Options{DenseCutoff: 64})
		if err != nil {
			// Near-critical chains (rho ~ 1) legitimately exhaust the
			// iteration budget; the property under test is that converged
			// answers are proper distributions.
			return errors.Is(err, ErrNoConvergence)
		}
		sum := 0.0
		for _, v := range res.Pi {
			if v < 0 {
				return false
			}
			sum += v
		}
		return math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: dense and iterative solvers agree.
func TestPropDenseIterativeAgree(t *testing.T) {
	f := func(seed int64) bool {
		src := xrand.New(seed)
		k := 20 + src.Intn(80)
		lambda := 0.5 + 2*src.Float64()
		mu := 0.5 + 2*src.Float64()
		q := mm1kGenerator(lambda, mu, k)
		dense, err := SteadyState(q, Options{DenseCutoff: k + 2})
		if err != nil {
			return false
		}
		iter, err := SteadyState(q, Options{DenseCutoff: 1})
		if err != nil {
			return false
		}
		for i := range dense.Pi {
			if math.Abs(dense.Pi[i]-iter.Pi[i]) > 1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestTransientConvergesToStationary(t *testing.T) {
	q := mm1kGenerator(1, 2, 20)
	pi0 := make([]float64, 21)
	pi0[20] = 1 // start fully congested
	long, err := Transient(q, pi0, 200, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := mm1kAnalytic(1, 2, 20)
	for i := range want {
		if math.Abs(long[i]-want[i]) > 1e-6 {
			t.Errorf("transient(200)[%d] = %v, stationary %v", i, long[i], want[i])
		}
	}
}

func TestTransientZeroTimeIsInitial(t *testing.T) {
	q := mm1kGenerator(1, 2, 5)
	pi0 := []float64{0, 1, 0, 0, 0, 0}
	got, err := Transient(q, pi0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range pi0 {
		if got[i] != pi0[i] {
			t.Fatalf("transient(0) = %v, want initial", got)
		}
	}
}

func TestTransientTwoStateClosedForm(t *testing.T) {
	// Two-state chain with rates a=3 (0->1), b=1 (1->0):
	// P(state 0 at t | start 0) = b/(a+b) + a/(a+b) e^{-(a+b)t}.
	q := matrix.NewCSR(2, []matrix.Triplet{
		{Row: 0, Col: 0, Val: -3}, {Row: 0, Col: 1, Val: 3},
		{Row: 1, Col: 0, Val: 1}, {Row: 1, Col: 1, Val: -1},
	})
	for _, tt := range []float64{0.1, 0.5, 1, 3} {
		got, err := Transient(q, []float64{1, 0}, tt, 0)
		if err != nil {
			t.Fatal(err)
		}
		want := 0.25 + 0.75*math.Exp(-4*tt)
		if math.Abs(got[0]-want) > 1e-9 {
			t.Errorf("t=%v: P(0) = %v, want %v", tt, got[0], want)
		}
	}
}

func TestTransientMassConserved(t *testing.T) {
	q := mm1kGenerator(2, 3, 50)
	pi0 := make([]float64, 51)
	for i := range pi0 {
		pi0[i] = 1.0 / 51
	}
	for _, tt := range []float64{0.01, 1, 10} {
		got, err := Transient(q, pi0, tt, 0)
		if err != nil {
			t.Fatal(err)
		}
		sum := 0.0
		for _, v := range got {
			if v < 0 {
				t.Fatalf("negative probability at t=%v", tt)
			}
			sum += v
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("t=%v: mass = %v", tt, sum)
		}
	}
}

func TestTransientValidation(t *testing.T) {
	q := mm1kGenerator(1, 2, 3)
	if _, err := Transient(q, []float64{1}, 1, 0); err == nil {
		t.Error("expected error for wrong-length initial vector")
	}
	if _, err := Transient(q, []float64{1, 0, 0, 0}, -1, 0); err == nil {
		t.Error("expected error for negative time")
	}
	if _, err := Transient(q, []float64{0.5, 0, 0, 0}, 1, 0); err == nil {
		t.Error("expected error for unnormalized initial vector")
	}
	if _, err := Transient(q, []float64{2, -1, 0, 0}, 1, 0); err == nil {
		t.Error("expected error for negative initial entries")
	}
}

// TestInitialVectorOption checks the warm-start seeding: a valid Initial
// is cleaned, renormalized and used; junk falls back to uniform; and the
// iterative solve still reaches the same answer from any seed.
func TestInitialVectorOption(t *testing.T) {
	n := 4
	init := initialVector(n, Options{Initial: []float64{2, -1, 1, 1}})
	want := []float64{0.5, 0, 0.25, 0.25}
	for i := range want {
		if math.Abs(init[i]-want[i]) > 1e-15 {
			t.Fatalf("initialVector = %v, want %v", init, want)
		}
	}
	for _, bad := range [][]float64{nil, {1, 2}, {0, 0, 0, 0}, {-1, -2, -3, -4}} {
		init := initialVector(n, Options{Initial: bad})
		for i := range init {
			if init[i] != 0.25 {
				t.Fatalf("Initial=%v: got %v, want uniform", bad, init)
			}
		}
	}

	// Warm-started iterative solve converges to the analytic answer and
	// must not mutate the caller's slice.
	q := mm1kGenerator(1, 1.5, 120)
	exact := mm1kAnalytic(1, 1.5, 120)
	seed := make([]float64, 121)
	copy(seed, exact)
	seed[0] *= 1.01 // slightly perturbed stationary vector
	keep := append([]float64(nil), seed...)
	res, err := SteadyState(q, Options{DenseCutoff: 1, Initial: seed})
	if err != nil {
		t.Fatal(err)
	}
	for i := range seed {
		if seed[i] != keep[i] {
			t.Fatal("SteadyState mutated the Initial slice")
		}
	}
	for i, want := range exact {
		if math.Abs(res.Pi[i]-want) > 1e-8 {
			t.Fatalf("pi[%d] = %v, want %v (method %s)", i, res.Pi[i], want, res.Method)
		}
	}
	// A warm start this close should converge almost immediately compared
	// to the cold uniform start.
	cold, err := SteadyState(q, Options{DenseCutoff: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations >= cold.Iterations {
		t.Errorf("warm start took %d iterations, cold %d", res.Iterations, cold.Iterations)
	}
}
