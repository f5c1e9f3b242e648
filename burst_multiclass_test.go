package burst

import (
	"bytes"
	"context"
	"math"
	"os"
	"strings"
	"testing"

	"repro/internal/core"
)

// TestPreMulticlassEquivalenceGate is the refactor's equivalence gate: a
// scenario file written before workload classes existed must parse to the
// same canonical bytes, the same content hash, and a byte-identical
// report. The goldens under testdata/ were generated by the pre-class
// code, and the report once more when the virtual-time PS station
// changed the simulator's rounding; any other diff here means the
// single-class path is no longer the degenerate case of the multiclass
// pipeline.
func TestPreMulticlassEquivalenceGate(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a full scenario")
	}
	raw, err := os.ReadFile("testdata/single_class_pre_multiclass.json")
	if err != nil {
		t.Fatal(err)
	}
	sc, err := ParseScenario(raw)
	if err != nil {
		t.Fatal(err)
	}

	wantCanon, err := os.ReadFile("testdata/single_class_pre_multiclass.canonical.json")
	if err != nil {
		t.Fatal(err)
	}
	canon, err := sc.WithDefaults().JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(canon, wantCanon) {
		t.Errorf("canonical JSON changed:\ngot:\n%s\nwant:\n%s", canon, wantCanon)
	}

	wantHash, err := os.ReadFile("testdata/single_class_pre_multiclass.hash")
	if err != nil {
		t.Fatal(err)
	}
	hash, err := sc.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if hash != strings.TrimSpace(string(wantHash)) {
		t.Errorf("content hash changed: got %s want %s", hash, strings.TrimSpace(string(wantHash)))
	}

	rep, err := Run(context.Background(), sc)
	if err != nil {
		t.Fatal(err)
	}
	got, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	wantRep, err := os.ReadFile("testdata/single_class_pre_multiclass.report.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, wantRep) {
		t.Errorf("report bytes changed (len got %d, want %d)", len(got), len(wantRep))
		line := firstDiffLine(got, wantRep)
		t.Logf("first differing line: %q", line)
	}
}

// firstDiffLine locates the first line where two byte streams diverge,
// for a readable failure message.
func firstDiffLine(got, want []byte) string {
	g := strings.Split(string(got), "\n")
	w := strings.Split(string(want), "\n")
	for i := 0; i < len(g) && i < len(w); i++ {
		if g[i] != w[i] {
			return "got: " + g[i] + " | want: " + w[i]
		}
	}
	return "(one stream is a prefix of the other)"
}

// multiclassModelScenario is a fast analytic multiclass scenario: two
// classes with distinct per-tier demand overrides over two tiers.
func multiclassModelScenario() Scenario {
	return Scenario{
		Name:        "multiclass-model",
		ThinkTime:   0.5,
		Populations: []int{4, 8},
		Tiers: []TierSpec{
			{Name: "front", Mean: 0.006, IndexOfDispersion: 3, P95: 0.015},
			{Name: "db", Mean: 0.009, IndexOfDispersion: 40, P95: 0.02},
		},
		Classes: []ClassSpec{
			{Name: "light", Weight: 3, TierDemands: []float64{0.004, 0.005}},
			{Name: "heavy", Weight: 1, TierDemands: []float64{0.009, 0.03}},
		},
		Solvers: []SolverKind{SolverMAP, SolverMVA},
	}
}

// TestMulticlassModelScenario pins the multiclass analytic path: the
// report carries class names, a multiclass point per population with
// per-class populations summing to the sweep point, and the recorded
// aggregation note for the single-class MAP solver.
func TestMulticlassModelScenario(t *testing.T) {
	sc := multiclassModelScenario()
	rep, err := Run(context.Background(), sc)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := rep.ClassNames, []string{"light", "heavy"}; len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("class names = %v, want %v", got, want)
	}
	if rep.ClassAggregation == "" {
		t.Error("multiclass scenario with the map solver must record the class aggregation")
	}
	for i, res := range rep.Results {
		mp := res.Multiclass
		if mp == nil {
			t.Fatalf("population %d: no multiclass point", res.Population)
		}
		if mp.Method != core.MulticlassExact {
			t.Errorf("population %d: method %q, want exact for this tiny lattice", res.Population, mp.Method)
		}
		if len(mp.Classes) != 2 {
			t.Fatalf("population %d: %d class rows", res.Population, len(mp.Classes))
		}
		totalPop, totalX := 0, 0.0
		for _, cr := range mp.Classes {
			totalPop += cr.Population
			totalX += cr.Throughput
		}
		if totalPop != sc.Populations[i] {
			t.Errorf("population %d: class populations sum to %d", res.Population, totalPop)
		}
		if math.Abs(totalX-mp.Throughput) > 1e-12 {
			t.Errorf("population %d: aggregate throughput %v != class sum %v", res.Population, mp.Throughput, totalX)
		}
		if res.MAP == nil || res.MVA == nil {
			t.Errorf("population %d: single-class MAP/MVA columns must still run", res.Population)
		}
		// The 3:1 weight split must apportion deterministically.
		if i == 0 && (mp.Classes[0].Population != 3 || mp.Classes[1].Population != 1) {
			t.Errorf("population 4: split %d/%d, want 3/1", mp.Classes[0].Population, mp.Classes[1].Population)
		}
	}
}

// TestMulticlassSimScenario runs a short simulation-backed multiclass
// scenario end to end: per-class simulated columns must appear, and the
// cross-validation must either produce per-class rows or record why it
// degraded.
func TestMulticlassSimScenario(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	sc := Scenario{
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
	rep, err := Run(context.Background(), sc)
	if err != nil {
		t.Fatal(err)
	}
	sp := rep.Results[0].Sim
	if sp == nil {
		t.Fatal("no sim point")
	}
	if got, want := sp.ClassNames, []string{"browsing", "ordering"}; len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("sim class names = %v, want %v", got, want)
	}
	total := 0.0
	for c := range sp.ClassNames {
		total += sp.ClassThroughput[c].Mean
	}
	if math.Abs(total-sp.Throughput.Mean) > 1e-9*sp.Throughput.Mean {
		t.Errorf("class throughputs sum to %v, aggregate is %v", total, sp.Throughput.Mean)
	}
	vp := rep.Results[0].Validation
	if vp == nil {
		t.Fatal("no validation point")
	}
	if len(vp.Classes) == 0 && vp.ClassFallbackReason == "" {
		t.Error("multiclass validation must carry class rows or a fallback reason")
	}
	for _, cv := range vp.Classes {
		if cv.SimThroughput.Mean <= 0 {
			t.Errorf("class %s: no simulated throughput", cv.Name)
		}
	}
}

// TestMulticlassClassNameRejection pins the error surface: unknown sim
// class names and unknown mixes are rejected at validation time, listing
// the valid names.
func TestMulticlassClassNameRejection(t *testing.T) {
	sc := Scenario{
		ThinkTime:   0.5,
		Populations: []int{10},
		Classes: []ClassSpec{
			{Name: "browsing"},
			{Name: "checkout"},
		},
		Workload: &WorkloadSpec{Mix: "shopping"},
		Solvers:  []SolverKind{SolverSim},
	}
	_, err := Run(context.Background(), sc)
	if err == nil || !strings.Contains(err.Error(), `class "checkout"`) || !strings.Contains(err.Error(), "browsing, ordering") {
		t.Errorf("unknown sim class: got %v, want an error naming the class and listing valid names", err)
	}

	sc.Classes = []ClassSpec{{Name: "browsing"}}
	_, err = Run(context.Background(), sc)
	if err == nil || !strings.Contains(err.Error(), `missing "ordering"`) {
		t.Errorf("partial class cover: got %v, want an error about the missing testbed class", err)
	}

	sc.Classes = nil
	sc.Workload.Mix = "rowsing"
	_, err = Run(context.Background(), sc)
	if err == nil || !strings.Contains(err.Error(), `mix "rowsing"`) || !strings.Contains(err.Error(), "browsing, shopping, ordering") {
		t.Errorf("unknown mix: got %v, want an error listing valid mixes", err)
	}
}

// TestCommittedMulticlassExample is the acceptance check for the
// committed examples/multiclass scenario: it runs end to end and every
// per-class throughput error stays within the single-class tolerance
// the README documents for cross-validation (15%).
func TestCommittedMulticlassExample(t *testing.T) {
	if testing.Short() {
		t.Skip("cross-validation scenario is slow under -short/-race instrumentation")
	}
	sc, err := LoadScenario("examples/multiclass/scenario.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(sc.Classes) < 2 {
		t.Fatalf("example declares %d classes, want >= 2", len(sc.Classes))
	}
	rep, err := Run(context.Background(), sc)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rep.Results {
		if r.Validation == nil {
			t.Fatalf("N=%d: no validation point", r.Population)
		}
		if len(r.Validation.Classes) != len(sc.Classes) {
			t.Fatalf("N=%d: %d class rows (fallback: %q)",
				r.Population, len(r.Validation.Classes), r.Validation.ClassFallbackReason)
		}
		for _, cv := range r.Validation.Classes {
			if math.Abs(cv.MVAError) > 0.15 {
				t.Errorf("N=%d class %s: throughput error %+.1f%% exceeds the 15%% tolerance",
					r.Population, cv.Name, 100*cv.MVAError)
			}
			// The split classes must have measurably distinct per-tier
			// demand profiles (browsing vs ordering transactions).
			if cv.SimThroughput.Mean <= 0 {
				t.Errorf("N=%d class %s: no simulated throughput", r.Population, cv.Name)
			}
		}
	}
}
