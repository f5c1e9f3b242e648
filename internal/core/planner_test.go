package core

import (
	"context"
	"math"
	"testing"

	"repro/internal/inference"
	"repro/internal/tpcw"
)

func validChar(mean, i, p95 float64) inference.Characterization {
	return inference.Characterization{
		MeanServiceTime:   mean,
		IndexOfDispersion: i,
		P95ServiceTime:    p95,
	}
}

// twoTierPlan fits the paper's front+DB plan from two characterizations.
func twoTierPlan(front, db inference.Characterization, thinkTime float64) (*PlanN, error) {
	return BuildPlanNFromCharacterizations([]inference.Characterization{front, db}, nil, thinkTime, PlannerOptions{}, nil)
}

// populationReport returns an empty report with one row per population.
func populationReport(pops []int) *Report {
	rep := &Report{Results: make([]PopulationReport, len(pops))}
	for i, n := range pops {
		rep.Results[i].Population = n
	}
	return rep
}

// solveLadder walks plan's solver ladder for wants at pops and fails
// the test on an error or a degraded report.
func solveLadder(t *testing.T, plan *PlanN, pops []int, wants ...SolverKind) []PopulationReport {
	t.Helper()
	rep := populationReport(pops)
	if err := plan.SolveLadder(context.Background(), context.Background(), rep, wants, nil, nil, nil); err != nil {
		t.Fatal(err)
	}
	if rep.Degraded {
		t.Fatalf("ladder degraded: %s", rep.FallbackReason)
	}
	return rep.Results
}

// relErr is |pred - actual| / actual.
func relErr(pred, actual float64) float64 { return math.Abs(pred-actual) / actual }

func TestBuildPlanErrors(t *testing.T) {
	good := validChar(0.005, 40, 0.02)
	if _, err := twoTierPlan(good, good, 0); err == nil {
		t.Error("expected error for zero think time")
	}
	bad := validChar(0, 40, 0.02)
	if _, err := twoTierPlan(bad, good, 0.5); err == nil {
		t.Error("expected error for invalid front characterization")
	}
	if _, err := twoTierPlan(good, bad, 0.5); err == nil {
		t.Error("expected error for invalid db characterization")
	}
}

func TestPredictConsistency(t *testing.T) {
	plan, err := twoTierPlan(
		validChar(0.006, 30, 0.025),
		validChar(0.004, 150, 0.03),
		0.5)
	if err != nil {
		t.Fatal(err)
	}
	prevMAP, prevMVA := 0.0, 0.0
	for _, p := range solveLadder(t, plan, []int{1, 10, 40}, SolverMAP, SolverMVA) {
		if p.MAP.Throughput < prevMAP || p.MVA.Throughput < prevMVA {
			t.Errorf("non-monotone throughput at %d EBs", p.Population)
		}
		prevMAP, prevMVA = p.MAP.Throughput, p.MVA.Throughput
		// Burstiness can only hurt: the MAP model must not predict more
		// throughput than the product-form baseline.
		if p.MAP.Throughput > p.MVA.Throughput*1.01 {
			t.Errorf("%d EBs: MAP X %v exceeds MVA X %v", p.Population, p.MAP.Throughput, p.MVA.Throughput)
		}
	}
}

// TestPredictErrors checks that every rung of the solver ladder refuses
// a population below one on its own: SolveLadder adds no check of its
// own, because Scenario.Validate rejects such populations at the input.
func TestPredictErrors(t *testing.T) {
	plan, err := twoTierPlan(validChar(0.005, 5, 0.02), validChar(0.004, 5, 0.02), 0.5)
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []SolverKind{SolverMAP, SolverDecomp, SolverMVA, SolverBounds} {
		for _, n := range []int{0, -3} {
			rep := populationReport([]int{n})
			if err := plan.SolveLadder(context.Background(), context.Background(), rep, []SolverKind{kind}, nil, nil, nil); err == nil {
				t.Errorf("%s at population %d: expected an error", kind, n)
			}
		}
	}
}

// TestEndToEndBrowsingMixBeatsMVA is the headline reproduction in test
// form (Fig. 12(a)): measure the simulated testbed under the bursty
// browsing mix, build both models from the measurements, and check that
// the MAP model predicts saturated throughput much better than MVA,
// which ignores burstiness and overpredicts.
func TestEndToEndBrowsingMixBeatsMVA(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end pipeline is expensive")
	}
	mix := tpcw.BrowsingMix()
	// Fitting data: 50 EBs with Zestim = 7 s for fine granularity
	// (Section 4.2 / Fig. 11).
	tiers, err := tpcw.DefaultTiers(mix, 2)
	if err != nil {
		t.Fatal(err)
	}
	fitRun, err := tpcw.RunN(tpcw.ConfigN{
		Mix: mix, Tiers: tiers, EBs: 50, ThinkTime: 7, Seed: 101,
		Duration: 2400, Warmup: 120, Cooldown: 60,
	})
	if err != nil {
		t.Fatal(err)
	}
	chars, err := inference.CharacterizeAll(fitRun.TierSamples, inference.Options{})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := BuildPlanNFromCharacterizations(chars, nil, 0.5, PlannerOptions{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	front, db := plan.Tiers[0].Characterization, plan.Tiers[1].Characterization
	t.Logf("front: S=%.4f I=%.1f p95=%.4f | db: S=%.4f I=%.1f p95=%.4f",
		front.MeanServiceTime, front.IndexOfDispersion, front.P95ServiceTime,
		db.MeanServiceTime, db.IndexOfDispersion, db.P95ServiceTime)

	// Validation experiments at Zqn = 0.5 s.
	populations := []int{25, 75, 120}
	measured := make([]float64, len(populations))
	for i, n := range populations {
		run, err := tpcw.RunN(tpcw.ConfigN{
			Mix: mix, Tiers: tiers, EBs: n, ThinkTime: 0.5, Seed: int64(200 + n),
			Duration: 1200, Warmup: 120, Cooldown: 60,
		})
		if err != nil {
			t.Fatal(err)
		}
		measured[i] = run.Throughput
	}
	preds := solveLadder(t, plan, populations, SolverMAP, SolverMVA)
	for i, p := range preds {
		t.Logf("EB=%3d measured=%6.1f MAP=%6.1f (%.1f%%) MVA=%6.1f (%.1f%%)",
			p.Population, measured[i], p.MAP.Throughput, 100*relErr(p.MAP.Throughput, measured[i]),
			p.MVA.Throughput, 100*relErr(p.MVA.Throughput, measured[i]))
	}
	// At saturation the difference is starkest: compare the highest
	// population.
	last := len(preds) - 1
	mapErrHigh := relErr(preds[last].MAP.Throughput, measured[last])
	mvaErrHigh := relErr(preds[last].MVA.Throughput, measured[last])
	if mvaErrHigh < 0.10 {
		t.Errorf("MVA error at saturation = %.1f%%, expected large overprediction under burstiness",
			100*mvaErrHigh)
	}
	if mapErrHigh > mvaErrHigh {
		t.Errorf("MAP model error %.1f%% should beat MVA error %.1f%%",
			100*mapErrHigh, 100*mvaErrHigh)
	}
}
