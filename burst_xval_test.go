package burst

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/ctmc"
)

// degradingXvalScenario cross-validates a small K=2 shopping-mix run
// whose exact MAP solve is refused by a 4-state limit, so the model
// columns must come from the lower rungs of the solver ladder: decomp by
// default, NetworkBounds when decomp is starved as well.
func degradingXvalScenario(name string, decomp *DecompOptions) Scenario {
	return Scenario{
		Name:        name,
		ThinkTime:   0.5,
		Populations: []int{15},
		Workload: &WorkloadSpec{
			Mix: "shopping", Tiers: 2, Seed: 99, Replicas: 2,
			Duration: 900, Warmup: 60, Cooldown: 30,
		},
		Solvers: []SolverKind{SolverCrossValidate},
		Planner: &PlannerOptions{Solver: ctmc.Options{MaxStates: 4}, Decomp: decomp},
	}
}

// multiclassXvalScenario is a short two-class simulation whose
// cross-validation fills the per-class columns.
func multiclassXvalScenario() Scenario {
	return Scenario{
		Name:        "multiclass-sim",
		ThinkTime:   0.5,
		Populations: []int{15},
		Classes: []ClassSpec{
			{Name: "browsing", Weight: 1},
			{Name: "ordering", Weight: 1},
		},
		Workload: &WorkloadSpec{
			Mix: "shopping", Tiers: 2, Duration: 600,
			Warmup: 60, Cooldown: 30, Seed: 7, Replicas: 2,
		},
		Solvers: []SolverKind{SolverSim, SolverCrossValidate},
	}
}

// xvalGoldenScenarios are the cross-validation cases whose reports are
// pinned byte for byte under testdata/xval: the committed example
// scenario, each way the model side degrades down the solver ladder, and
// a multiclass run with per-class columns.
func xvalGoldenScenarios(t *testing.T) map[string]Scenario {
	t.Helper()
	committed, err := LoadScenario("examples/scenariofile/scenario.json")
	if err != nil {
		t.Fatal(err)
	}
	return map[string]Scenario{
		"scenariofile":     committed,
		"degrade_decomp":   degradingXvalScenario("xval-degrade-decomp", nil),
		"degrade_bounds":   degradingXvalScenario("xval-degrade-bounds", &DecompOptions{MaxIter: 1}),
		"multiclass_class": multiclassXvalScenario(),
	}
}

// TestCrossValidationGoldens pins the report of every cross-validation
// path byte for byte: simulation ground truth, characterization, fitted
// model, ladder fallbacks and per-class deltas. A change to any of them,
// or to the wording of a fallback reason, shows up here as a diff.
func TestCrossValidationGoldens(t *testing.T) {
	for name, sc := range xvalGoldenScenarios(t) {
		t.Run(name, func(t *testing.T) {
			rep, err := Run(context.Background(), sc)
			if err != nil {
				t.Fatal(err)
			}
			got, err := rep.JSON()
			if err != nil {
				t.Fatal(err)
			}
			want, err := os.ReadFile(filepath.Join("testdata", "xval", name+".report.json"))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("report bytes changed (len got %d, want %d)", len(got), len(want))
				t.Logf("first differing line: %q", firstDiffLine(got, want))
			}
		})
	}
}

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
	rep, err := Run(context.Background(), Scenario{
		Name:        "xval-three-tier",
		ThinkTime:   0.5,
		Populations: []int{30},
		Workload: &WorkloadSpec{
			Mix: "ordering", Tiers: 3, Seed: 7, Replicas: 3,
			Duration: 900, Warmup: 60, Cooldown: 30,
		},
		Solvers: []SolverKind{SolverCrossValidate},
		Planner: &PlannerOptions{Solver: ctmc.Options{Tol: 1e-8}},
	})
	if err != nil {
		t.Fatal(err)
	}
	sim, v := rep.Results[0].Sim, rep.Results[0].Validation
	t.Logf("sim X = %.2f ± %.2f tx/s; MAP %.2f (err %+.1f%%), MVA %.2f (err %+.1f%%), states %d",
		v.SimThroughput.Mean, v.SimThroughput.HalfWidth,
		v.MAPThroughput, 100*v.MAPError, v.MVAThroughput, 100*v.MVAError, v.States)
	for _, tier := range v.Tiers {
		t.Logf("tier %-5s sim U = %.3f ± %.3f; MAP %.3f (%+.3f), MVA %.3f (%+.3f); I = %.1f",
			tier.Name, tier.SimUtil.Mean, tier.SimUtil.HalfWidth,
			tier.MAPUtil, tier.MAPError, tier.MVAUtil, tier.MVAError,
			tier.IndexOfDispersion)
	}
	if sim.Replicas != 3 || len(v.Tiers) != 3 {
		t.Fatalf("report shape: %d replicas, %d tiers", sim.Replicas, len(v.Tiers))
	}
	if v.MAPError > 0.15 || v.MAPError < -0.15 {
		t.Errorf("MAP throughput error %.1f%% exceeds the documented 15%% tolerance", 100*v.MAPError)
	}
	for _, tier := range v.Tiers {
		if tier.MAPError > 0.10 || tier.MAPError < -0.10 {
			t.Errorf("tier %s MAP utilization error %+.3f exceeds 0.10", tier.Name, tier.MAPError)
		}
	}
	if v.States <= 0 {
		t.Error("report missing CTMC state count")
	}
}

// degradingCrossValidation runs a degradingXvalScenario and checks what
// every ladder hop shares: the state-space cause, no exact MAP columns,
// and an intact MVA baseline.
func degradingCrossValidation(t *testing.T, decomp *DecompOptions) *ValidationPoint {
	t.Helper()
	rep, err := Run(context.Background(), degradingXvalScenario("xval-degrade", decomp))
	if err != nil {
		t.Fatalf("a refused exact solve must degrade, not fail: %v", err)
	}
	v := rep.Results[0].Validation
	if !v.Degraded || !strings.Contains(v.FallbackReason, "state space") {
		t.Fatalf("Degraded=%v reason=%q, want the state-space cause", v.Degraded, v.FallbackReason)
	}
	if !rep.Degraded || rep.FallbackReason != v.FallbackReason {
		t.Fatalf("report Degraded=%v reason=%q, want the validation's", rep.Degraded, rep.FallbackReason)
	}
	if v.MAPThroughput != 0 || v.MAPError != 0 || v.MAPWithinCI || v.States != 0 {
		t.Fatalf("degraded report carries exact MAP columns: %+v", v)
	}
	if v.MVAThroughput <= 0 || v.MVAError == 0 {
		t.Fatalf("degraded report lost the MVA baseline: X=%v err=%v", v.MVAThroughput, v.MVAError)
	}
	for _, tier := range v.Tiers {
		if tier.MAPUtil != 0 || tier.MAPError != 0 {
			t.Fatalf("tier %s carries exact MAP utilization: %+v", tier.Name, tier)
		}
		if tier.MVAUtil <= 0 || tier.MVAError == 0 {
			t.Fatalf("tier %s lost the MVA utilization: %+v", tier.Name, tier)
		}
	}
	return v
}

// TestCrossValidationDegradesToDecomp takes the ladder's first hop: the
// decomp approximation answers for the refused exact solve, and bounds
// are not computed.
func TestCrossValidationDegradesToDecomp(t *testing.T) {
	v := degradingCrossValidation(t, nil)
	if !strings.HasSuffix(v.FallbackReason, "; decomp approximation reported instead") {
		t.Fatalf("FallbackReason = %q, want the decomp hop", v.FallbackReason)
	}
	if v.Decomp == nil || v.Decomp.Throughput <= 0 {
		t.Fatalf("missing decomp approximation: %+v", v.Decomp)
	}
	if v.Bounds != nil {
		t.Fatalf("bounds filled although the decomp hop answered: %+v", v.Bounds)
	}
}

// TestCrossValidationDegradesToBounds starves the decomp fixed point to
// one iteration, so the ladder hops on to NetworkBounds.
func TestCrossValidationDegradesToBounds(t *testing.T) {
	v := degradingCrossValidation(t, &DecompOptions{MaxIter: 1})
	for _, part := range []string{"decomp fallback also failed", "; NetworkBounds reported instead"} {
		if !strings.Contains(v.FallbackReason, part) {
			t.Fatalf("FallbackReason = %q, missing %q", v.FallbackReason, part)
		}
	}
	if v.Decomp != nil {
		t.Fatalf("decomp column filled although the decomp hop failed: %+v", v.Decomp)
	}
	if v.Bounds == nil || v.Bounds.LowerX <= 0 || v.Bounds.UpperX < v.Bounds.LowerX {
		t.Fatalf("implausible bounds: %+v", v.Bounds)
	}
}
