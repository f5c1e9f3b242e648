package mapqn

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/ctmc"
)

// referenceInvertResidence is the former bisection root search of
// invertResidence: the same bracket expansion, then halving the bracket
// until it is narrower than 1e-14 of its upper end.
func referenceInvertResidence(lam []float64, n int, rTarget, guess float64) float64 {
	if !(rTarget > 0) || !(guess > 0) {
		return guess
	}
	lo, hi := guess, guess
	rLo := exponentialResidence(lam, lo, n)
	rHi := rLo
	for i := 0; i < 64 && rLo > rTarget; i++ {
		lo /= 2
		rLo = exponentialResidence(lam, lo, n)
	}
	for i := 0; i < 64 && rHi < rTarget; i++ {
		hi *= 2
		rHi = exponentialResidence(lam, hi, n)
	}
	if rLo > rTarget || rHi < rTarget {
		return guess
	}
	for i := 0; i < 80 && hi-lo > 1e-14*hi; i++ {
		mid := (lo + hi) / 2
		if exponentialResidence(lam, mid, n) < rTarget {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}

// TestInvertResidenceMatchesBisection holds the regula falsi root to the
// former bisection within 1e-12 relative. The arrival profiles are flat
// (a constant rate) and steep (the think pool's (N-j)/Z, times a random
// factor), at N in {1, 10, 200}; each target is the residence of a
// random demand, searched from guesses below, near and above it.
func TestInvertResidenceMatchesBisection(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	for _, n := range []int{1, 10, 200} {
		lam := make([]float64, n)
		for _, profile := range []string{"flat", "steep"} {
			for trial := 0; trial < 40; trial++ {
				rate := math.Pow(10, 1+2*rng.Float64())
				for j := range lam {
					lam[j] = rate
					if profile == "steep" {
						lam[j] = rate * float64(n-j)
					}
				}
				dStar := math.Pow(10, -4+2*rng.Float64())
				rTarget := exponentialResidence(lam, dStar, n)
				for _, g := range []float64{0.01, 0.7, 1, 1.3, 100} {
					guess := dStar * g * (1 + 0.1*rng.Float64())
					got := invertResidence(lam, n, rTarget, guess)
					want := referenceInvertResidence(lam, n, rTarget, guess)
					if rel := math.Abs(got-want) / want; !(rel <= 1e-12) {
						t.Errorf("%s N=%d d*=%g guess=%g: regula falsi %v, bisection %v (rel %.2e)",
							profile, n, dStar, guess, got, want, rel)
					}
				}
			}
		}
	}
}

// dampedSolveDecomp is the former demand update as a reference: the same
// chains and targets as solveDecomp, moved each iteration by the plain
// damped step d += Damping*(G(d) - d).
func dampedSolveDecomp(m NetworkModel, opts DecompOptions) (NetworkMetrics, error) {
	opts, maps, d, ws, err := prepareDecomp(m, opts, nil, nil)
	if err != nil {
		return NetworkMetrics{}, err
	}
	for iter := 1; iter <= opts.MaxIter; iter++ {
		residual, err := ws.evaluate(m, d)
		if err != nil {
			return NetworkMetrics{}, err
		}
		if residual < opts.Tol || len(d) == 1 {
			return collectDecompMetrics(m, maps, ws.sols, iter, residual)
		}
		for i := range d {
			d[i] += opts.Damping * (ws.targets[i] - d[i])
		}
	}
	return NetworkMetrics{}, fmt.Errorf("damped reference: %w", ctmc.ErrNoConvergence)
}

// TestAndersonMatchesDampedFixedPoint solves each model to Tol 1e-12 with
// both updates: they must reach the same fixed point, X and every U_k
// within 1e-8 relative, and Anderson in at most a quarter of the damped
// iterations. The models are the decomp goldens' and the K=4 and K=6
// benchmark networks at db I in {1, 4, 40, 400}.
func TestAndersonMatchesDampedFixedPoint(t *testing.T) {
	models := map[string]NetworkModel{
		"k1": {
			Stations:  []Station{{Name: "db", MAP: fitMAP(t, 0.005, 120, 0.03)}},
			ThinkTime: 0.4, Customers: 60,
		},
		"k2_idle_run": {
			Stations: []Station{
				{Name: "front", MAP: fitMAP(t, 0.0068, 4, 0.021)},
				{Name: "db", MAP: fitMAP(t, 0.0046, 40, 0.019)},
			},
			ThinkTime: 0.5, Customers: 50, PhasesRunWhileIdle: true,
		},
	}
	for _, k := range []int{4, 6} {
		for _, dbI := range []float64{1, 4, 25, 40, 400} {
			models[fmt.Sprintf("k%d_db%g", k, dbI)] = NetworkModel{
				Stations:  decompBenchStations(t, k, dbI, 120),
				ThinkTime: 0.5, Customers: 200,
			}
		}
	}
	opts := DecompOptions{Tol: 1e-12, MaxIter: 5000}
	for name, m := range models {
		damped, err := dampedSolveDecomp(m, opts)
		if err != nil {
			t.Fatalf("%s: damped: %v", name, err)
		}
		anderson, err := SolveNetworkDecomp(m, opts)
		if err != nil {
			t.Fatalf("%s: anderson: %v", name, err)
		}
		if got, most := anderson.SolverIterations, max(1, damped.SolverIterations/4); got > most {
			t.Errorf("%s: anderson took %d iterations, damped %d (want at most %d)", name, got, damped.SolverIterations, most)
		}
		t.Logf("%s: %d iterations, damped %d", name, anderson.SolverIterations, damped.SolverIterations)
		check := func(what string, a, b float64) {
			if rel := math.Abs(a-b) / math.Abs(b); !(rel <= 1e-8) {
				t.Errorf("%s: %s anderson %v, damped %v (rel %.2e)", name, what, a, b, rel)
			}
		}
		check("X", anderson.Throughput, damped.Throughput)
		for i := range damped.Utils {
			check(fmt.Sprintf("U[%d]", i), anderson.Utils[i], damped.Utils[i])
		}
	}
}

// TestDecompResidualFloor asks for a tolerance no iterate can reach: the
// Anderson history turns to round-off once the residual bottoms out, and
// the update must fall back instead of proposing garbage. After 300
// iterations every demand is finite and positive, the residual sits at
// its round-off floor, and the failure wraps ctmc.ErrNoConvergence.
func TestDecompResidualFloor(t *testing.T) {
	for _, k := range []int{4, 6} {
		m := NetworkModel{Stations: decompBenchStations(t, k, 400, 120), ThinkTime: 0.5, Customers: 200}
		opts, _, d, ws, err := prepareDecomp(m, DecompOptions{Tol: 1e-300, MaxIter: 300}, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		iterations, residual, err := ws.fixedPoint(context.Background(), m, opts, d)
		if !errors.Is(err, ctmc.ErrNoConvergence) {
			t.Fatalf("K=%d: err = %v, want ctmc.ErrNoConvergence", k, err)
		}
		if iterations != 300 {
			t.Errorf("K=%d: %d iterations, want 300", k, iterations)
		}
		for i, v := range d {
			if !(v > 0) || math.IsInf(v, 0) {
				t.Errorf("K=%d: demand %d = %v after 300 iterations", k, i, v)
			}
		}
		if !(residual < 1e-12) {
			t.Errorf("K=%d: residual %v after 300 iterations, want its round-off floor", k, residual)
		}
		t.Logf("K=%d: residual floor %.3g", k, residual)
	}
}
