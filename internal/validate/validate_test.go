package validate

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/ctmc"
	"repro/internal/mapqn"
	"repro/internal/tpcw"
)

// TestCrossValidationThreeTier closes the paper's loop for K=3: simulate
// a three-tier testbed (front, app, db) with three replicas, characterize
// every tier from the simulated coarse samples only, fit MAP(2)s, solve
// the exact 3-station MAP network, and compare. Tolerance: the MAP model
// must predict throughput within 15% of the simulated mean and every
// tier's utilization within 10 points — the accuracy band the paper
// reports for its two-tier validation (Section 4.2), with margin for the
// short CI-sized runs used here.
func TestCrossValidationThreeTier(t *testing.T) {
	if testing.Short() {
		t.Skip("CTMC cross-validation is expensive under -short/-race; run via make xvalidate or the full suite")
	}
	tiers, err := tpcw.DefaultTiers(tpcw.OrderingMix(), 3)
	if err != nil {
		t.Fatal(err)
	}
	cfg := tpcw.ConfigN{
		Mix: tpcw.OrderingMix(), Tiers: tiers,
		EBs: 30, Seed: 7,
		Duration: 900, Warmup: 60, Cooldown: 30,
	}
	rep, err := CrossValidate(cfg, Options{
		Replicas: 3,
		Planner:  core.PlannerOptions{Solver: ctmc.Options{Tol: 1e-8}},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("sim X = %.2f ± %.2f tx/s; MAP %.2f (err %+.1f%%), MVA %.2f (err %+.1f%%), states %d",
		rep.SimThroughput.Mean, rep.SimThroughput.HalfWidth,
		rep.MAPThroughput, 100*rep.MAPError, rep.MVAThroughput, 100*rep.MVAError, rep.States)
	for _, tier := range rep.Tiers {
		t.Logf("tier %-5s sim U = %.3f ± %.3f; MAP %.3f (%+.3f), MVA %.3f (%+.3f); I = %.1f",
			tier.Name, tier.SimUtil.Mean, tier.SimUtil.HalfWidth,
			tier.MAPUtil, tier.MAPError, tier.MVAUtil, tier.MVAError,
			tier.Characterization.IndexOfDispersion)
	}
	if rep.Replicas != 3 || len(rep.Tiers) != 3 {
		t.Fatalf("report shape: %d replicas, %d tiers", rep.Replicas, len(rep.Tiers))
	}
	if rep.MAPError > 0.15 || rep.MAPError < -0.15 {
		t.Errorf("MAP throughput error %.1f%% exceeds the documented 15%% tolerance", 100*rep.MAPError)
	}
	for _, tier := range rep.Tiers {
		if tier.MAPError > 0.10 || tier.MAPError < -0.10 {
			t.Errorf("tier %s MAP utilization error %+.3f exceeds 0.10", tier.Name, tier.MAPError)
		}
	}
	if rep.States <= 0 {
		t.Error("report missing CTMC state count")
	}
}

// degradingCrossValidation cross-validates a small K=2 shopping-mix run
// whose exact MAP solve is refused by a 4-state limit, so the model
// columns must come from the lower tiers of the solver ladder.
func degradingCrossValidation(t *testing.T, decomp *mapqn.DecompOptions) *Report {
	t.Helper()
	tiers, err := tpcw.DefaultTiers(tpcw.ShoppingMix(), 2)
	if err != nil {
		t.Fatal(err)
	}
	cfg := tpcw.ConfigN{
		Mix: tpcw.ShoppingMix(), Tiers: tiers,
		EBs: 15, Seed: 99,
		Duration: 900, Warmup: 60, Cooldown: 30,
	}
	rep, err := CrossValidate(cfg, Options{
		Replicas: 2,
		Planner:  core.PlannerOptions{Solver: ctmc.Options{MaxStates: 4}, Decomp: decomp},
	})
	if err != nil {
		t.Fatalf("a refused exact solve must degrade, not fail: %v", err)
	}
	if !rep.Degraded || !strings.Contains(rep.FallbackReason, "state space") {
		t.Fatalf("Degraded=%v reason=%q, want the state-space cause", rep.Degraded, rep.FallbackReason)
	}
	if rep.MAPThroughput != 0 || rep.MAPError != 0 || rep.MAPWithinCI || rep.States != 0 {
		t.Fatalf("degraded report carries exact MAP columns: %+v", rep)
	}
	if rep.MVAThroughput <= 0 || rep.MVAError == 0 {
		t.Fatalf("degraded report lost the MVA baseline: X=%v err=%v", rep.MVAThroughput, rep.MVAError)
	}
	for _, tier := range rep.Tiers {
		if tier.MAPUtil != 0 || tier.MAPError != 0 {
			t.Fatalf("tier %s carries exact MAP utilization: %+v", tier.Name, tier)
		}
		if tier.MVAUtil <= 0 || tier.MVAError == 0 {
			t.Fatalf("tier %s lost the MVA utilization: %+v", tier.Name, tier)
		}
	}
	return rep
}

// TestCrossValidationDegradesToDecomp takes the ladder's first hop: the
// decomp approximation answers for the refused exact solve, and bounds
// are not computed.
func TestCrossValidationDegradesToDecomp(t *testing.T) {
	rep := degradingCrossValidation(t, nil)
	if !strings.HasSuffix(rep.FallbackReason, "; decomp approximation reported instead") {
		t.Fatalf("FallbackReason = %q, want the decomp hop", rep.FallbackReason)
	}
	if rep.Decomp == nil || rep.Decomp.Throughput <= 0 {
		t.Fatalf("missing decomp approximation: %+v", rep.Decomp)
	}
	if rep.Bounds != nil {
		t.Fatalf("bounds filled although the decomp hop answered: %+v", rep.Bounds)
	}
}

// TestCrossValidationDegradesToBounds starves the decomp fixed point to
// one iteration, so the ladder hops on to NetworkBounds.
func TestCrossValidationDegradesToBounds(t *testing.T) {
	rep := degradingCrossValidation(t, &mapqn.DecompOptions{MaxIter: 1})
	for _, part := range []string{"decomp fallback also failed", "; NetworkBounds reported instead"} {
		if !strings.Contains(rep.FallbackReason, part) {
			t.Fatalf("FallbackReason = %q, missing %q", rep.FallbackReason, part)
		}
	}
	if rep.Decomp != nil {
		t.Fatalf("decomp column filled although the decomp hop failed: %+v", rep.Decomp)
	}
	if rep.Bounds == nil || rep.Bounds.LowerX <= 0 || rep.Bounds.UpperX < rep.Bounds.LowerX {
		t.Fatalf("implausible bounds: %+v", rep.Bounds)
	}
}
