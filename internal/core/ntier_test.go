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
	plan, err := BuildPlanNFromCharacterizations(chars, nil, 0.5, PlannerOptions{}, nil)
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

// TestBuildPlanNVisitsAndMemo pins the plan fit's visit ratios and its
// memo key: identical characterizations share one fit, and a zero
// visit ratio means one visit per cycle.
func TestBuildPlanNVisitsAndMemo(t *testing.T) {
	c := validChar(0.005, 40, 0.02)
	memo := NewMemo()
	plan, err := BuildPlanNFromCharacterizations([]inference.Characterization{c, c}, []float64{0, 1.5}, 0.5, PlannerOptions{}, memo)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Tiers[0].Visits != 1 || plan.Tiers[1].Visits != 1.5 {
		t.Errorf("visits = %v, %v; want 1, 1.5", plan.Tiers[0].Visits, plan.Tiers[1].Visits)
	}
	if st := memo.Stats(); st.FitMisses != 1 || st.FitHits != 1 {
		t.Errorf("fit memo %d hits / %d misses, want 1/1", st.FitHits, st.FitMisses)
	}
	if _, err := BuildPlanNFromCharacterizations([]inference.Characterization{c, c}, []float64{1}, 0.5, PlannerOptions{}, nil); err == nil {
		t.Error("expected error for visit/tier count mismatch")
	}
}

func TestBuildPlanNErrors(t *testing.T) {
	good := validChar(0.005, 40, 0.02)
	if _, err := BuildPlanNFromCharacterizations(nil, nil, 0.5, PlannerOptions{}, nil); err == nil {
		t.Error("expected error for no tiers")
	}
	if _, err := BuildPlanNFromCharacterizations([]inference.Characterization{good}, nil, 0, PlannerOptions{}, nil); err == nil {
		t.Error("expected error for zero think time")
	}
	bad := validChar(0, 40, 0.02)
	if _, err := BuildPlanNFromCharacterizations([]inference.Characterization{good, bad}, nil, 0.5, PlannerOptions{}, nil); err == nil {
		t.Error("expected error for invalid characterization")
	}
	if _, err := BuildPlanNFromCharacterizations([]inference.Characterization{good, good}, nil, 0.5,
		PlannerOptions{TierNames: []string{"only-one"}}, nil); err == nil {
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
	}, nil, 0.5, PlannerOptions{}, nil)
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
	}, nil, 0.5, PlannerOptions{TierNames: []string{"web", "cache", "db"}}, nil)
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
