package burst

import (
	"context"
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/ctmc"
)

// decompTiers is the four-tier bursty chain used by the decomposition
// scale tests — the same shape BenchmarkSolveThreeTier and
// BenchmarkSolveDecomp measure.
func decompTiers() []TierSpec {
	return []TierSpec{
		{Name: "lb", Mean: 0.002, IndexOfDispersion: 4, P95: 0.008},
		{Name: "front", Mean: 0.004, IndexOfDispersion: 40, P95: 0.02},
		{Name: "app", Mean: 0.006, IndexOfDispersion: 120, P95: 0.04},
		{Name: "db", Mean: 0.003, IndexOfDispersion: 25, P95: 0.01},
	}
}

// TestDecompScenarioAccuracyGrid runs the examples/suite sensitivity
// shape — database burstiness I in {1, 4, 40, 400} across the
// population sweep — with both the exact and the decomposition solver
// requested, and checks the recorded DecompError stays within the 5%
// accuracy budget at every (I, N) point. This is the end-to-end
// accuracy claim of the decomp tier on the paper's two-tier model.
func TestDecompScenarioAccuracyGrid(t *testing.T) {
	if testing.Short() {
		t.Skip("exact CTMC grid takes seconds per cell")
	}
	for _, dispersion := range []float64{1, 4, 40, 400} {
		sc := Scenario{
			Name:      "decomp-accuracy",
			ThinkTime: 0.5,
			Tiers: []TierSpec{
				{Name: "front", Mean: 0.0068, IndexOfDispersion: 4, P95: 0.021},
				{Name: "db", Mean: 0.0046, IndexOfDispersion: dispersion, P95: 0.019},
			},
			Populations: []int{25, 50, 100, 150},
			Solvers:     []SolverKind{SolverMAP, SolverDecomp},
		}
		rep, err := Run(context.Background(), sc)
		if err != nil {
			t.Fatalf("I=%g: %v", dispersion, err)
		}
		if rep.Degraded {
			t.Fatalf("I=%g: unexpectedly degraded: %s", dispersion, rep.FallbackReason)
		}
		for _, r := range rep.Results {
			if r.MAP == nil || r.Decomp == nil {
				t.Fatalf("I=%g N=%d: missing solver columns (MAP %v, Decomp %v)",
					dispersion, r.Population, r.MAP != nil, r.Decomp != nil)
			}
			if r.Decomp.SolverMethod != "decomp" {
				t.Fatalf("I=%g N=%d: SolverMethod = %q", dispersion, r.Population, r.Decomp.SolverMethod)
			}
			want := math.Abs(r.Decomp.Throughput-r.MAP.Throughput) / r.MAP.Throughput
			if math.Abs(r.DecompError-want) > 1e-12 {
				t.Errorf("I=%g N=%d: DecompError = %v, want %v", dispersion, r.Population, r.DecompError, want)
			}
			if r.DecompError > 0.05 {
				t.Errorf("I=%g N=%d: decomp error %.2f%% exceeds the 5%% budget (exact X=%v, decomp X=%v)",
					dispersion, r.Population, 100*r.DecompError, r.MAP.Throughput, r.Decomp.Throughput)
			}
		}
	}
}

// TestDecompPerformanceGap is the headline perf acceptance point: on a
// four-tier bursty chain whose exact CTMC runs to minutes-scale
// (170k+ states at N=20), the decomposition must deliver its answer in
// under 1% of the exact wall clock while staying within 5% on
// throughput.
func TestDecompPerformanceGap(t *testing.T) {
	if testing.Short() {
		t.Skip("exact K=4 CTMC solve takes ~15s")
	}
	front, err := FitMAP2(0.004, 40, 0.02, FitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	app, err := FitMAP2(0.006, 120, 0.04, FitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	db, err := FitMAP2(0.003, 25, 0.01, FitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	lb, err := FitMAP2(0.002, 4, 0.008, FitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	m := MAPNetworkModelN{
		Stations: []Station{
			{Name: "lb", MAP: lb.MAP},
			{Name: "front", MAP: front.MAP},
			{Name: "app", MAP: app.MAP},
			{Name: "db", MAP: db.MAP},
		},
		ThinkTime: 0.5,
		Customers: 20,
	}
	t0 := time.Now()
	ex, err := SolveNetwork(context.Background(), m, SolverOptions{Tol: 1e-8})
	if err != nil {
		t.Fatal(err)
	}
	exactWall := time.Since(t0)
	t0 = time.Now()
	ap, err := SolveNetworkDecomp(context.Background(), m, DecompOptions{})
	if err != nil {
		t.Fatal(err)
	}
	decompWall := time.Since(t0)

	rel := math.Abs(ap.Throughput-ex.Throughput) / ex.Throughput
	if rel > 0.05 {
		t.Errorf("decomp X=%v vs exact X=%v: error %.2f%% exceeds 5%%", ap.Throughput, ex.Throughput, 100*rel)
	}
	if 100*decompWall > exactWall {
		t.Errorf("decomp took %v vs exact %v — more than 1%% of the exact wall clock", decompWall, exactWall)
	}
	t.Logf("exact %v (%d states) vs decomp %v (%d states, %d iterations), err %.3f%%",
		exactWall, ex.States, decompWall, ap.States, ap.SolverIterations, 100*rel)
}

// TestScenarioStateLimitFallsBackToDecomp drives the degradation chain
// through its first hop: a four-tier N=200 scenario whose exact product
// space (~1e9 states) is over the exact solver's limit must degrade to
// the decomposition approximation — not all the way to bounds — with
// the hop recorded in the fallback reason.
func TestScenarioStateLimitFallsBackToDecomp(t *testing.T) {
	sc := Scenario{
		Name:        "decomp-fallback",
		ThinkTime:   0.5,
		Tiers:       decompTiers(),
		Populations: []int{200},
		Solvers:     []SolverKind{SolverMAP, SolverMVA},
	}
	rep, err := Run(context.Background(), sc)
	if err != nil {
		t.Fatalf("state-limit refusal must degrade, not fail: %v", err)
	}
	if !rep.Degraded {
		t.Fatal("report not degraded")
	}
	if !strings.Contains(rep.FallbackReason, "state space") ||
		!strings.Contains(rep.FallbackReason, "decomp approximation reported instead") {
		t.Fatalf("FallbackReason = %q, want the state-space cause and the decomp hop", rep.FallbackReason)
	}
	for _, r := range rep.Results {
		if r.MAP != nil {
			t.Fatal("degraded report must not carry exact MAP results")
		}
		if r.Decomp == nil || r.Decomp.Throughput <= 0 {
			t.Fatalf("degraded report missing the decomp column: %+v", r)
		}
		if r.MVA == nil {
			t.Fatal("degraded report should still carry the MVA baseline")
		}
		if r.Bounds != nil {
			t.Fatal("bounds must not be filled when the decomp hop succeeds")
		}
	}
}

// TestScenarioDecompRequestedStandsIn pins the chain's other wording:
// when the scenario already requested the decomp solver alongside map,
// a failed exact solve leaves the decomp columns standing in rather
// than re-solving, and the reason says so.
func TestScenarioDecompRequestedStandsIn(t *testing.T) {
	sc := Scenario{
		Name:        "decomp-standin",
		ThinkTime:   0.5,
		Tiers:       decompTiers(),
		Populations: []int{200},
		Solvers:     []SolverKind{SolverMAP, SolverDecomp},
	}
	rep, err := Run(context.Background(), sc)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Degraded || !strings.Contains(rep.FallbackReason, "stands in for the exact columns") {
		t.Fatalf("Degraded=%v reason=%q", rep.Degraded, rep.FallbackReason)
	}
	for _, r := range rep.Results {
		if r.Decomp == nil {
			t.Fatalf("requested decomp column missing: %+v", r)
		}
		if r.DecompError != 0 {
			t.Fatalf("DecompError = %v without an exact solve to compare against", r.DecompError)
		}
	}
}

// TestScenarioDoubleHopToBounds forces both fallback hops: the exact
// solve fails on the state limit and the decomposition is starved to
// one fixed-point iteration, so the report must land on NetworkBounds
// with both hops recorded.
func TestScenarioDoubleHopToBounds(t *testing.T) {
	sc := modelScenario()
	sc.Planner = &PlannerOptions{
		Solver: ctmc.Options{MaxStates: 4},
		Decomp: &DecompOptions{MaxIter: 1},
	}
	rep, err := Run(context.Background(), sc)
	if err != nil {
		t.Fatalf("double fallback must degrade, not fail: %v", err)
	}
	if !rep.Degraded {
		t.Fatal("report not degraded")
	}
	for _, part := range []string{"state space", "decomp fallback also failed", "NetworkBounds reported instead"} {
		if !strings.Contains(rep.FallbackReason, part) {
			t.Fatalf("FallbackReason = %q, missing %q", rep.FallbackReason, part)
		}
	}
	for _, r := range rep.Results {
		if r.MAP != nil || r.Decomp != nil {
			t.Fatalf("double-degraded report must carry neither exact nor decomp columns: %+v", r)
		}
		if r.Bounds == nil || r.Bounds.UpperX <= 0 {
			t.Fatalf("missing bounds fallback: %+v", r)
		}
	}
}

// TestScenarioDecompOnly runs a decomp-only scenario: the decomp
// columns are the whole model output, with no exact solve and no
// degradation.
func TestScenarioDecompOnly(t *testing.T) {
	sc := modelScenario()
	sc.Solvers = []SolverKind{SolverDecomp}
	rep, err := Run(context.Background(), sc)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Degraded {
		t.Fatalf("decomp-only run degraded: %s", rep.FallbackReason)
	}
	for _, r := range rep.Results {
		if r.Decomp == nil || r.MAP != nil || r.Bounds != nil {
			t.Fatalf("decomp-only columns wrong: %+v", r)
		}
		if r.Decomp.Throughput <= 0 || r.Decomp.ResponseTime <= 0 {
			t.Fatalf("implausible decomp metrics: %+v", r.Decomp)
		}
	}
}

// TestSuiteSolversAxisWithDecomp expands a suite over the solvers axis
// including the decomp tier: each cell gets exactly the columns its
// solver list requests.
func TestSuiteSolversAxisWithDecomp(t *testing.T) {
	base := modelScenario()
	base.Solvers = nil
	base.Populations = []int{10}
	s := Suite{
		Name: "solvers-axis",
		Base: base,
		Grid: Grid{Solvers: [][]SolverKind{
			{SolverMAP, SolverMVA},
			{SolverDecomp, SolverMVA},
			{SolverMAP, SolverDecomp},
		}},
	}
	rep, err := RunSuite(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(rep.Rows))
	}
	for i, want := range []struct{ mapCol, decompCol bool }{
		{true, false},
		{false, true},
		{true, true},
	} {
		r := rep.Rows[i].Report.Results[0]
		if (r.MAP != nil) != want.mapCol || (r.Decomp != nil) != want.decompCol {
			t.Errorf("row %d: MAP=%v Decomp=%v, want MAP=%v Decomp=%v",
				i, r.MAP != nil, r.Decomp != nil, want.mapCol, want.decompCol)
		}
		if want.mapCol && want.decompCol && r.DecompError == 0 {
			t.Errorf("row %d: DecompError not recorded", i)
		}
	}
}
