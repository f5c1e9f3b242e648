package core

import (
	"math"
	"testing"

	"repro/internal/inference"
	"repro/internal/trace"
)

func TestBuildPlanNFromCharacterizations(t *testing.T) {
	chars := []inference.Characterization{
		validChar(0.005, 40, 0.02),
		validChar(0.006, 120, 0.04),
		validChar(0.004, 300, 0.03),
	}
	plan, err := BuildPlanNFromCharacterizations(chars, 0.5, PlannerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Tiers) != 3 {
		t.Fatalf("got %d tiers, want 3", len(plan.Tiers))
	}
	wantNames := []string{"front", "app", "db"}
	for i, tier := range plan.Tiers {
		if tier.Name != wantNames[i] {
			t.Errorf("tier %d name %q, want %q", i, tier.Name, wantNames[i])
		}
		if tier.Fit.MAP == nil {
			t.Fatalf("tier %d has no fitted MAP", i)
		}
		if math.Abs(tier.Fit.MAP.Mean()-chars[i].MeanServiceTime) > 1e-6 {
			t.Errorf("tier %d fitted mean %v, want %v", i, tier.Fit.MAP.Mean(), chars[i].MeanServiceTime)
		}
		if tier.Visits != 1 {
			t.Errorf("tier %d default visits %v, want 1", i, tier.Visits)
		}
	}
}

func TestBuildPlanNErrors(t *testing.T) {
	good := validChar(0.005, 40, 0.02)
	if _, err := BuildPlanNFromCharacterizations(nil, 0.5, PlannerOptions{}); err == nil {
		t.Error("expected error for no tiers")
	}
	if _, err := BuildPlanNFromCharacterizations([]inference.Characterization{good}, 0, PlannerOptions{}); err == nil {
		t.Error("expected error for zero think time")
	}
	bad := validChar(0, 40, 0.02)
	if _, err := BuildPlanNFromCharacterizations([]inference.Characterization{good, bad}, 0.5, PlannerOptions{}); err == nil {
		t.Error("expected error for invalid characterization")
	}
	if _, err := BuildPlanNFromCharacterizations([]inference.Characterization{good, good}, 0.5,
		PlannerOptions{TierNames: []string{"only-one"}}); err == nil {
		t.Error("expected error for name/tier count mismatch")
	}
	if _, err := BuildPlanN(nil, 0.5, PlannerOptions{}); err == nil {
		t.Error("expected error for no tier samples")
	}
	if _, err := BuildPlanN([]trace.UtilizationSamples{{}}, 0.5, PlannerOptions{}); err == nil {
		t.Error("expected error for empty samples")
	}
}

func TestPlanNPredictThreeTier(t *testing.T) {
	plan, err := BuildPlanNFromCharacterizations([]inference.Characterization{
		validChar(0.004, 20, 0.015),
		validChar(0.006, 150, 0.04), // bursty middle tier
		validChar(0.003, 10, 0.008),
	}, 0.5, PlannerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	preds, err := plan.Predict([]int{1, 10, 30})
	if err != nil {
		t.Fatal(err)
	}
	prevMAP, prevMVA := 0.0, 0.0
	for _, p := range preds {
		if len(p.MAP.Utils) != 3 || len(p.MVA.Utilizations) != 3 {
			t.Fatalf("per-station slices wrong length: %+v", p)
		}
		if p.MAP.Throughput < prevMAP || p.MVA.Throughput < prevMVA {
			t.Errorf("non-monotone throughput at %d EBs", p.EBs)
		}
		prevMAP, prevMVA = p.MAP.Throughput, p.MVA.Throughput
		// Burstiness can only hurt: the MAP model must not predict more
		// throughput than the product-form baseline.
		if p.MAP.Throughput > p.MVA.Throughput*1.01 {
			t.Errorf("%d EBs: MAP X %v exceeds MVA X %v", p.EBs, p.MAP.Throughput, p.MVA.Throughput)
		}
		// Conservation across three stations plus think pool.
		total := p.MAP.Thinking
		for _, q := range p.MAP.QueueLens {
			total += q
		}
		if math.Abs(total-float64(p.EBs)) > 1e-6*float64(p.EBs) {
			t.Errorf("%d EBs: conservation violated: %v", p.EBs, total)
		}
	}
	// Bounds bracket the exact solutions.
	bounds, err := plan.Bounds([]int{10, 30, 500})
	if err != nil {
		t.Fatal(err)
	}
	if preds[1].MAP.Throughput > bounds[0].UpperX*1.001 || preds[1].MAP.Throughput < bounds[0].LowerX*0.999 {
		t.Errorf("bounds [%v, %v] miss exact %v", bounds[0].LowerX, bounds[0].UpperX, preds[1].MAP.Throughput)
	}
	// Large-population bounds answer without a CTMC solve.
	if bounds[2].Customers != 500 || bounds[2].UpperX <= 0 {
		t.Errorf("large-population bounds invalid: %+v", bounds[2])
	}
}

func TestPlanNCompare(t *testing.T) {
	plan, err := BuildPlanNFromCharacterizations([]inference.Characterization{
		validChar(0.005, 5, 0.02),
		validChar(0.004, 5, 0.02),
		validChar(0.006, 5, 0.02),
	}, 0.5, PlannerOptions{TierNames: []string{"web", "cache", "db"}})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Tiers[1].Name != "cache" {
		t.Errorf("explicit tier name not applied: %q", plan.Tiers[1].Name)
	}
	if _, err := plan.Compare([]int{1, 2}, []float64{1}); err == nil {
		t.Error("expected error for length mismatch")
	}
	if _, err := plan.Compare([]int{1}, []float64{0}); err == nil {
		t.Error("expected error for zero measurement")
	}
	acc, err := plan.Compare([]int{5}, []float64{8})
	if err != nil {
		t.Fatal(err)
	}
	if acc[0].EBs != 5 || acc[0].Measured != 8 || acc[0].MAPPredicted <= 0 {
		t.Errorf("accuracy record wrong: %+v", acc[0])
	}
}
