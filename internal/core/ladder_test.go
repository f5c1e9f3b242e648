package core

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/ctmc"
	"repro/internal/inference"
)

// TestLadderMVAColumnIsMVASweep pins where a {map, mva} report's MVA
// column comes from: the MVA rung alone, bit-equal to MVASweep over the
// plan's baseline, whether the exact sweep solved cold, was served from
// the memo, or failed and degraded to decomp.
func TestLadderMVAColumnIsMVASweep(t *testing.T) {
	chars := []inference.Characterization{validChar(0.006, 30, 0.025), validChar(0.004, 150, 0.03)}
	pops := []int{1, 5, 10}
	wants := []SolverKind{SolverMAP, SolverMVA}
	ctx := context.Background()
	check := func(t *testing.T, plan *PlanN, rep *Report) {
		t.Helper()
		want, err := MVASweep(plan.Baseline(), pops)
		if err != nil {
			t.Fatal(err)
		}
		for i, r := range rep.Results {
			if r.MVA == nil || !reflect.DeepEqual(*r.MVA, want[i]) {
				t.Errorf("population %d: MVA column %+v, want MVASweep's %+v", r.Population, r.MVA, want[i])
			}
		}
	}

	plan, err := BuildPlanNFromCharacterizations(chars, nil, 0.5, PlannerOptions{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	memo := NewMemo()
	cold, warm := populationReport(pops), populationReport(pops)
	for _, rep := range []*Report{cold, warm} {
		if err := plan.SolveLadder(ctx, ctx, rep, wants, memo, nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	if st := memo.Stats(); st.SolveMisses != 1 || st.SolveHits != 1 {
		t.Fatalf("solve memo %d hits / %d misses, want 1 / 1", st.SolveHits, st.SolveMisses)
	}
	t.Run("cold", func(t *testing.T) { check(t, plan, cold) })
	t.Run("memo_hit", func(t *testing.T) {
		check(t, plan, warm)
		if !reflect.DeepEqual(cold.Results, warm.Results) {
			t.Error("a memo hit changed the report")
		}
	})

	t.Run("degraded", func(t *testing.T) {
		limited, err := BuildPlanNFromCharacterizations(chars, nil, 0.5, PlannerOptions{Solver: ctmc.Options{MaxStates: 4}}, nil)
		if err != nil {
			t.Fatal(err)
		}
		rep := populationReport(pops)
		if err := limited.SolveLadder(ctx, ctx, rep, wants, nil, nil, nil); err != nil {
			t.Fatal(err)
		}
		if !rep.Degraded || rep.Results[0].MAP != nil || rep.Results[0].Decomp == nil {
			t.Fatalf("state limit did not degrade to decomp: degraded=%v reason=%q", rep.Degraded, rep.FallbackReason)
		}
		check(t, limited, rep)
	})
}
