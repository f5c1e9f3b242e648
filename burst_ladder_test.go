package burst

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/ctmc"
)

// ladderGoldenScenarios are the deterministic solver-ladder cases whose
// reports are pinned byte for byte under testdata/ladder: a healthy run
// of every analytical tier, and each way a failed exact solve degrades
// through decomp and NetworkBounds.
func ladderGoldenScenarios() map[string]Scenario {
	healthy := modelScenario()
	healthy.Name = "ladder-healthy"
	healthy.Solvers = []SolverKind{SolverMAP, SolverDecomp, SolverMVA, SolverBounds}

	stateLimit := modelScenario()
	stateLimit.Name = "ladder-state-limit"
	stateLimit.Planner = &PlannerOptions{Solver: ctmc.Options{MaxStates: 4}}

	standIn := modelScenario()
	standIn.Name = "ladder-stand-in"
	standIn.Solvers = []SolverKind{SolverMAP, SolverDecomp}
	standIn.Planner = &PlannerOptions{Solver: ctmc.Options{MaxStates: 4}}

	doubleHop := modelScenario()
	doubleHop.Name = "ladder-double-hop"
	doubleHop.Planner = &PlannerOptions{
		Solver: ctmc.Options{MaxStates: 4},
		Decomp: &DecompOptions{MaxIter: 1},
	}

	noConverge := modelScenario()
	noConverge.Name = "ladder-no-convergence"
	noConverge.Planner = &PlannerOptions{Solver: ctmc.Options{MaxIter: 1, DenseCutoff: 1}}

	decompTierScenario := Scenario{
		Name:        "ladder-decomp-tiers",
		ThinkTime:   0.5,
		Tiers:       decompTiers(),
		Populations: []int{5, 10},
		Solvers:     []SolverKind{SolverDecomp, SolverMVA, SolverBounds},
	}

	return map[string]Scenario{
		"healthy":        healthy,
		"state_limit":    stateLimit,
		"stand_in":       standIn,
		"double_hop":     doubleHop,
		"no_convergence": noConverge,
		"decomp_tiers":   decompTierScenario,
	}
}

// TestLadderGoldens pins the report of every solver-ladder path byte
// for byte: the healthy exact+decomp run (with its decomp_error), the
// decomp hop after a state-limit refusal, a requested decomp standing
// in for the exact columns, the double hop to NetworkBounds, and the
// non-convergence hop. A change to how the ladder degrades, or to the
// wording of a fallback reason, shows up here as a diff.
func TestLadderGoldens(t *testing.T) {
	for name, sc := range ladderGoldenScenarios() {
		t.Run(name, func(t *testing.T) {
			rep, err := Run(context.Background(), sc)
			if err != nil {
				t.Fatal(err)
			}
			got, err := rep.JSON()
			if err != nil {
				t.Fatal(err)
			}
			want, err := os.ReadFile(filepath.Join("testdata", "ladder", name+".report.json"))
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
