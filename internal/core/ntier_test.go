package core

import (
	"math"
	"testing"

	"repro/internal/inference"
)

// TestBuildPlanNFromCharacterizations fits the paper's two-tier plan, a
// three-tier plan and one with explicit tier names: every fit keeps its
// tier's measured mean, and the front tier's its index of dispersion.
func TestBuildPlanNFromCharacterizations(t *testing.T) {
	front, app, db := validChar(0.005, 40, 0.02), validChar(0.006, 120, 0.04), validChar(0.004, 300, 0.03)
	cases := []struct {
		name      string
		chars     []inference.Characterization
		explicit  []string
		wantNames []string
	}{
		{"two-tier", []inference.Characterization{front, db}, nil, []string{"front", "db"}},
		{"three-tier", []inference.Characterization{front, app, db}, nil, []string{"front", "app", "db"}},
		{"named", []inference.Characterization{front, app, db}, []string{"web", "cache", "db"}, []string{"web", "cache", "db"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			plan, err := BuildPlanNFromCharacterizations(tc.chars, nil, 0.5, PlannerOptions{TierNames: tc.explicit}, nil)
			if err != nil {
				t.Fatal(err)
			}
			if len(plan.Tiers) != len(tc.chars) {
				t.Fatalf("got %d tiers, want %d", len(plan.Tiers), len(tc.chars))
			}
			for i, tier := range plan.Tiers {
				if tier.Name != tc.wantNames[i] {
					t.Errorf("tier %d name %q, want %q", i, tier.Name, tc.wantNames[i])
				}
				if tier.Fit.MAP == nil {
					t.Fatalf("tier %d has no fitted MAP", i)
				}
				// The fitted processes must preserve the measured means.
				if math.Abs(tier.Fit.MAP.Mean()-tc.chars[i].MeanServiceTime) > 1e-6 {
					t.Errorf("tier %d fitted mean %v, want %v", i, tier.Fit.MAP.Mean(), tc.chars[i].MeanServiceTime)
				}
				if tier.Visits != 1 {
					t.Errorf("tier %d default visits %v, want 1", i, tier.Visits)
				}
			}
			if got := plan.Tiers[0].Fit.AchievedI; math.Abs(got-40) > 4 {
				t.Errorf("front I = %v, want ~40", got)
			}
		})
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
	preds := solveLadder(t, plan, []int{1, 10, 30}, SolverMAP, SolverMVA)
	prevMAP, prevMVA := 0.0, 0.0
	for _, p := range preds {
		if len(p.MAP.Utils) != 3 || len(p.MVA.Utilizations) != 3 {
			t.Fatalf("per-station slices wrong length: %+v", p)
		}
		if p.MAP.Throughput < prevMAP || p.MVA.Throughput < prevMVA {
			t.Errorf("non-monotone throughput at %d EBs", p.Population)
		}
		prevMAP, prevMVA = p.MAP.Throughput, p.MVA.Throughput
		// Burstiness can only hurt: the MAP model must not predict more
		// throughput than the product-form baseline.
		if p.MAP.Throughput > p.MVA.Throughput*1.01 {
			t.Errorf("%d EBs: MAP X %v exceeds MVA X %v", p.Population, p.MAP.Throughput, p.MVA.Throughput)
		}
		// Conservation across three stations plus think pool.
		total := p.MAP.Thinking
		for _, q := range p.MAP.QueueLens {
			total += q
		}
		if math.Abs(total-float64(p.Population)) > 1e-6*float64(p.Population) {
			t.Errorf("%d EBs: conservation violated: %v", p.Population, total)
		}
	}
	// Bounds bracket the exact solutions.
	bounds := solveLadder(t, plan, []int{10, 30, 500}, SolverBounds)
	if b := bounds[0].Bounds; preds[1].MAP.Throughput > b.UpperX*1.001 || preds[1].MAP.Throughput < b.LowerX*0.999 {
		t.Errorf("bounds [%v, %v] miss exact %v", b.LowerX, b.UpperX, preds[1].MAP.Throughput)
	}
	// Large-population bounds answer without a CTMC solve.
	if b := bounds[2].Bounds; b.Customers != 500 || b.UpperX <= 0 || bounds[2].MAP != nil {
		t.Errorf("large-population bounds invalid: %+v", bounds[2])
	}
}
