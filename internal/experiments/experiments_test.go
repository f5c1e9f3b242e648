package experiments

import (
	"math"
	"testing"
)

// tiny returns a scale small enough for unit tests.
func tiny() Scale {
	s := Quick()
	s.SimDuration = 700
	s.FitDuration = 900
	s.SimWarmup = 60
	s.SimCooldown = 30
	s.SolverTol = 1e-7
	return s
}

func TestFigure1ReproducesShape(t *testing.T) {
	rows, err := Figure1(11, Quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(rows))
	}
	prev := 0.0
	for _, r := range rows {
		t.Logf("%-22s mean=%.3f SCV=%.2f I=%.1f (paper %.1f)", r.Profile, r.Mean, r.SCV, r.I, r.PaperI)
		if math.Abs(r.Mean-1) > 0.05 {
			t.Errorf("%s: mean = %v, want ~1", r.Profile, r.Mean)
		}
		if math.Abs(r.SCV-3) > 0.5 {
			t.Errorf("%s: SCV = %v, want ~3", r.Profile, r.SCV)
		}
		if r.I <= prev {
			t.Errorf("%s: I = %v not increasing (prev %v)", r.Profile, r.I, prev)
		}
		prev = r.I
	}
}

func TestTable1ReproducesShape(t *testing.T) {
	rows, err := Table1(11, Quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(rows))
	}
	prevMean50 := 0.0
	for _, r := range rows {
		t.Logf("%-22s I=%6.1f R50=%7.2f P95=%8.2f R80=%7.2f P95=%8.2f",
			r.Profile, r.I, r.Mean50, r.P95At50, r.Mean80, r.P95At80)
		// Monotone degradation with burstiness at both utilizations.
		if r.Mean50 <= prevMean50 {
			t.Errorf("%s: mean response not increasing", r.Profile)
		}
		prevMean50 = r.Mean50
		// Higher utilization is always worse.
		if r.Mean80 < r.Mean50 {
			t.Errorf("%s: response at rho=0.8 (%v) below rho=0.5 (%v)", r.Profile, r.Mean80, r.Mean50)
		}
		// Tails dominate means.
		if r.P95At50 < r.Mean50 || r.P95At80 < r.Mean80 {
			t.Errorf("%s: p95 below mean", r.Profile)
		}
	}
	// Order-of-magnitude agreement with the paper at the extremes:
	// random profile near M/G/1 (paper 3.02), single burst far above it.
	if rows[0].Mean50 < 1.5 || rows[0].Mean50 > 6 {
		t.Errorf("random-profile R(0.5) = %v, paper 3.02", rows[0].Mean50)
	}
	if rows[3].Mean50 < 10*rows[0].Mean50 {
		t.Errorf("single-burst R(0.5) = %v should dwarf random %v (paper: 40x)",
			rows[3].Mean50, rows[0].Mean50)
	}
}

func TestFigure4Shape(t *testing.T) {
	rows, err := Figure4(21, tiny(), []int{25, 100})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("rows = %d, want 6", len(rows))
	}
	byMix := map[string][]Figure4Row{}
	for _, r := range rows {
		byMix[r.Mix] = append(byMix[r.Mix], r)
		t.Logf("%-9s EB=%3d X=%6.1f Uf=%.2f Ud=%.2f", r.Mix, r.EBs, r.TPUT, r.UtilFront, r.UtilDB)
	}
	for mixName, mr := range byMix {
		if mr[1].TPUT <= mr[0].TPUT {
			t.Errorf("%s: throughput should grow 25 -> 100 EBs", mixName)
		}
	}
	// At 100 EBs the saturated ordering follows the paper: browsing
	// lowest, ordering highest.
	if !(byMix["browsing"][1].TPUT < byMix["shopping"][1].TPUT &&
		byMix["shopping"][1].TPUT < byMix["ordering"][1].TPUT) {
		t.Errorf("saturated TPUT ordering wrong: b=%v s=%v o=%v",
			byMix["browsing"][1].TPUT, byMix["shopping"][1].TPUT, byMix["ordering"][1].TPUT)
	}
}

func TestFigure5And6Shape(t *testing.T) {
	stats, err := Figure5And6(31, tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(stats) != 3 {
		t.Fatalf("got %d timeline summaries, want 3", len(stats))
	}
	var browsing, ordering TimelineStats
	for _, s := range stats {
		t.Logf("%-9s Uf=%.2f Ud=%.2f switch=%.3f Qdb(mean/max)=%.1f/%.0f",
			s.Mix, s.MeanFront, s.MeanDB, s.SwitchFraction, s.MeanQueueDB, s.MaxQueueDB)
		switch s.Mix {
		case "browsing":
			browsing = s
		case "ordering":
			ordering = s
		}
	}
	if browsing.SwitchFraction < 2*ordering.SwitchFraction {
		t.Errorf("bottleneck switch should concentrate in browsing: %v vs %v",
			browsing.SwitchFraction, ordering.SwitchFraction)
	}
	if browsing.MaxQueueDB < 40 {
		t.Errorf("browsing max DB queue = %v, want spikes toward 100", browsing.MaxQueueDB)
	}
}

func TestFigure7And8Shape(t *testing.T) {
	rows, err := Figure7And8(41, tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("rows = %d, want 6 (2 types x 3 mixes)", len(rows))
	}
	for _, r := range rows {
		t.Logf("%-9s %-12s share=%.3f in-system mean/max=%.1f/%.0f corr=%.2f",
			r.Mix, r.Type, r.Share, r.MeanInSystem, r.MaxInSystem, r.CorrWithDBQueue)
	}
	// Browsing Best Seller: ~11% share yet dominates queue spikes.
	var bsBrowsing TypeBreakdownRow
	for _, r := range rows {
		if r.Mix == "browsing" && r.Type == "BestSellers" {
			bsBrowsing = r
		}
	}
	if bsBrowsing.Share < 0.07 || bsBrowsing.Share > 0.16 {
		t.Errorf("browsing BestSellers share = %v, want ~0.11", bsBrowsing.Share)
	}
	if bsBrowsing.CorrWithDBQueue < 0.4 {
		t.Errorf("browsing BestSellers/queue correlation = %v, want strong", bsBrowsing.CorrWithDBQueue)
	}
}

func TestFigure10MVAFailsOnlyForBrowsing(t *testing.T) {
	rows, err := Figure10(51, tiny(), []int{25, 100})
	if err != nil {
		t.Fatal(err)
	}
	worst := map[string]float64{}
	for _, r := range rows {
		t.Logf("%-9s EB=%3d measured=%6.1f MVA=%6.1f err=%.1f%%",
			r.Mix, r.EBs, r.Measured, r.MVA, 100*r.MVAErr)
		if r.MVAErr > worst[r.Mix] {
			worst[r.Mix] = r.MVAErr
		}
	}
	if worst["browsing"] < 0.12 {
		t.Errorf("browsing MVA worst error = %.1f%%, paper reports up to 36%%", 100*worst["browsing"])
	}
	if worst["browsing"] < worst["ordering"] {
		t.Errorf("browsing error (%v) should exceed ordering error (%v)",
			worst["browsing"], worst["ordering"])
	}
}

func TestFigure12MAPBeatsMVAUnderBurstiness(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline is expensive")
	}
	results, err := Figure12(61, tiny(), []int{25, 100})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("results = %d, want 3", len(results))
	}
	for _, res := range results {
		t.Logf("%s: I_front=%.1f (paper %.0f) I_db=%.1f (paper %.0f)",
			res.Mix, res.IFront, res.PaperIF, res.IDB, res.PaperID)
		for _, r := range res.Rows {
			t.Logf("  EB=%3d measured=%6.1f MAP=%6.1f (%.1f%%) MVA=%6.1f (%.1f%%)",
				r.EBs, r.Measured, r.MAPModel, 100*r.MAPErr, r.MVA, 100*r.MVAErr)
		}
	}
	// Browsing at saturation: the MAP model must beat MVA.
	for _, res := range results {
		if res.Mix != "browsing" {
			continue
		}
		last := res.Rows[len(res.Rows)-1]
		if last.MAPErr > last.MVAErr {
			t.Errorf("browsing saturation: MAP err %.1f%% should beat MVA %.1f%%",
				100*last.MAPErr, 100*last.MVAErr)
		}
		// Fitted I regimes follow the paper's ranking.
		if res.IFront < 5 {
			t.Errorf("browsing fitted I_front = %v, want clearly above 1", res.IFront)
		}
	}
}

func TestFigure11GranularityHelps(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline is expensive")
	}
	rows, err := Figure11(71, tiny(), []int{25, 75})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		t.Logf("EB=%3d measured=%6.1f Z0.5=%6.1f (%.1f%%) Z7=%6.1f (%.1f%%)",
			r.EBs, r.Measured, r.ModelZ05, 100*r.ErrZ05, r.ModelZ7, 100*r.ErrZ7)
		// The paper's Fig. 11 finding: the finer effective granularity of
		// the Zestim = 7 s fitting data yields the better model.
		if r.ErrZ7 > r.ErrZ05 {
			t.Errorf("EB=%d: Z7 model error %.1f%% should beat Z0.5 model error %.1f%%",
				r.EBs, 100*r.ErrZ7, 100*r.ErrZ05)
		}
	}
}
