package core

import (
	"math"
	"testing"

	"repro/internal/inference"
	"repro/internal/tpcw"
	"repro/internal/trace"
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

func TestBuildPlanFromCharacterizations(t *testing.T) {
	plan, err := twoTierPlan(
		validChar(0.005, 40, 0.02),
		validChar(0.004, 300, 0.03),
		0.5)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Tiers[0].Name != "front" || plan.Tiers[1].Name != "db" {
		t.Errorf("two-tier names = %q/%q, want front/db", plan.Tiers[0].Name, plan.Tiers[1].Name)
	}
	front, db := plan.Tiers[0].Fit, plan.Tiers[1].Fit
	if front.MAP == nil || db.MAP == nil {
		t.Fatal("fitted MAPs missing")
	}
	// The fitted processes must preserve the measured means.
	if math.Abs(front.MAP.Mean()-0.005) > 1e-6 {
		t.Errorf("front mean = %v", front.MAP.Mean())
	}
	if math.Abs(db.MAP.Mean()-0.004) > 1e-6 {
		t.Errorf("db mean = %v", db.MAP.Mean())
	}
	if math.Abs(front.AchievedI-40) > 4 {
		t.Errorf("front I = %v, want ~40", front.AchievedI)
	}
}

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
	if _, err := BuildPlanN([]trace.UtilizationSamples{{}, {}}, 0.5, PlannerOptions{}); err == nil {
		t.Error("expected error for empty samples")
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
	preds, err := plan.Predict([]int{1, 10, 40})
	if err != nil {
		t.Fatal(err)
	}
	prevMAP, prevMVA := 0.0, 0.0
	for _, p := range preds {
		if p.MAP.Throughput < prevMAP || p.MVA.Throughput < prevMVA {
			t.Errorf("non-monotone throughput at %d EBs", p.EBs)
		}
		prevMAP, prevMVA = p.MAP.Throughput, p.MVA.Throughput
		// Burstiness can only hurt: the MAP model must not predict more
		// throughput than the product-form baseline.
		if p.MAP.Throughput > p.MVA.Throughput*1.01 {
			t.Errorf("%d EBs: MAP X %v exceeds MVA X %v", p.EBs, p.MAP.Throughput, p.MVA.Throughput)
		}
	}
}

func TestPredictErrors(t *testing.T) {
	plan, err := twoTierPlan(validChar(0.005, 5, 0.02), validChar(0.004, 5, 0.02), 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := plan.Predict(nil); err == nil {
		t.Error("expected error for empty populations")
	}
	if _, err := plan.Predict([]int{0}); err == nil {
		t.Error("expected error for zero population")
	}
}

func TestCompareValidation(t *testing.T) {
	plan, err := twoTierPlan(validChar(0.005, 5, 0.02), validChar(0.004, 5, 0.02), 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := plan.Compare([]int{1, 2}, []float64{1}); err == nil {
		t.Error("expected error for length mismatch")
	}
	if _, err := plan.Compare([]int{1}, []float64{0}); err == nil {
		t.Error("expected error for zero measurement")
	}
	acc, err := plan.Compare([]int{5}, []float64{8.0})
	if err != nil {
		t.Fatal(err)
	}
	if acc[0].EBs != 5 || acc[0].Measured != 8 {
		t.Errorf("accuracy record wrong: %+v", acc[0])
	}
	if acc[0].MAPRelativeError < 0 || acc[0].MVARelativeError < 0 {
		t.Error("relative errors must be non-negative")
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
	plan, err := BuildPlanN(fitRun.TierSamples, 0.5, PlannerOptions{})
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
	acc, err := plan.Compare(populations, measured)
	if err != nil {
		t.Fatal(err)
	}
	var mapErrHigh, mvaErrHigh float64
	for _, a := range acc {
		t.Logf("EB=%3d measured=%6.1f MAP=%6.1f (%.1f%%) MVA=%6.1f (%.1f%%)",
			a.EBs, a.Measured, a.MAPPredicted, 100*a.MAPRelativeError,
			a.MVAPredicted, 100*a.MVARelativeError)
	}
	// At saturation the difference is starkest: compare the highest
	// population.
	last := acc[len(acc)-1]
	mapErrHigh, mvaErrHigh = last.MAPRelativeError, last.MVARelativeError
	if mvaErrHigh < 0.10 {
		t.Errorf("MVA error at saturation = %.1f%%, expected large overprediction under burstiness",
			100*mvaErrHigh)
	}
	if mapErrHigh > mvaErrHigh {
		t.Errorf("MAP model error %.1f%% should beat MVA error %.1f%%",
			100*mapErrHigh, 100*mvaErrHigh)
	}
}
