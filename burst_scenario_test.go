package burst

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/mapqn"
	"repro/internal/tpcw"
)

// modelScenario is a small, fast, fully deterministic scenario: two
// tiers with explicit characterizations, solved analytically.
func modelScenario() Scenario {
	return Scenario{
		Name:        "model-only",
		ThinkTime:   0.5,
		Populations: []int{5, 10},
		Tiers: []TierSpec{
			{Name: "front", Mean: 0.006, IndexOfDispersion: 3, P95: 0.015},
			{Name: "db", Mean: 0.009, IndexOfDispersion: 40, P95: 0.02},
		},
		Solvers: []SolverKind{SolverMAP, SolverMVA, SolverBounds},
	}
}

// simScenario is a quick simulation-backed scenario used by the sim and
// cancellation tests.
func simScenario() Scenario {
	return Scenario{
		Name:        "sim-quick",
		ThinkTime:   0.5,
		Populations: []int{15},
		Workload: &WorkloadSpec{
			Mix: "shopping", Tiers: 2, Duration: 300,
			Warmup: 30, Cooldown: 15, Seed: 99, Replicas: 2,
		},
		Solvers: []SolverKind{SolverSim},
	}
}

func TestZeroWindowConstantsAgree(t *testing.T) {
	if core.ZeroWindow != tpcw.ZeroWindow {
		t.Fatalf("core.ZeroWindow = %v, tpcw.ZeroWindow = %v — the scenario layer and the simulator must agree",
			core.ZeroWindow, tpcw.ZeroWindow)
	}
}

// TestRunModelScenarioDelegates pins the facade contract: a Scenario run
// produces exactly the numbers of the planner's function-per-step
// pipeline, because both route through the same internal machinery.
func TestRunModelScenarioDelegates(t *testing.T) {
	sc := modelScenario()
	rep, err := Run(context.Background(), sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Results) != 2 || len(rep.Tiers) != 2 {
		t.Fatalf("report shape: %d results, %d tiers", len(rep.Results), len(rep.Tiers))
	}
	if rep.TierNames[0] != "front" || rep.TierNames[1] != "db" {
		t.Fatalf("tier names %v", rep.TierNames)
	}

	// Step-by-step path: BuildPlanNFromCharacterizations, then the solves
	// each ladder rung makes (exact sweep, MVA sweep, bounds sweep).
	chars := []Characterization{
		{MeanServiceTime: 0.006, IndexOfDispersion: 3, P95ServiceTime: 0.015},
		{MeanServiceTime: 0.009, IndexOfDispersion: 40, P95ServiceTime: 0.02},
	}
	plan, err := core.BuildPlanNFromCharacterizations(chars, nil, 0.5, PlannerOptions{TierNames: []string{"front", "db"}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	pops := []int{5, 10}
	mets, err := SolveNetworkSweep(context.Background(), plan.Stations(), plan.ThinkTime, pops, SolverOptions{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	base, err := core.MVASweep(plan.Baseline(), pops)
	if err != nil {
		t.Fatal(err)
	}
	bounds, err := mapqn.NetworkBoundsSweep(plan.Stations(), plan.ThinkTime, pops)
	if err != nil {
		t.Fatal(err)
	}
	for i, n := range pops {
		got, want := rep.Results[i].MAP, mets[i]
		if got == nil || got.Throughput != want.Throughput || !reflect.DeepEqual(got.Utils, want.Utils) {
			t.Errorf("population %d: scenario MAP %+v != planner %+v", n, got, want)
		}
		if rep.Results[i].MVA == nil || rep.Results[i].MVA.Throughput != base[i].Throughput {
			t.Errorf("population %d: scenario MVA diverges from planner", n)
		}
		if rep.Results[i].Bounds == nil || rep.Results[i].Bounds.UpperX != bounds[i].UpperX ||
			rep.Results[i].Bounds.LowerX != bounds[i].LowerX {
			t.Errorf("population %d: scenario bounds diverge from planner", n)
		}
	}
}

// TestScenarioJSONRoundTripRunEquivalence is the satellite-task
// guarantee: marshal → unmarshal → Run produces a byte-identical report
// on a fixed seed.
func TestScenarioJSONRoundTripRunEquivalence(t *testing.T) {
	sc := modelScenario()
	data, err := sc.JSON()
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParseScenario(data)
	if err != nil {
		t.Fatal(err)
	}
	rep1, err := Run(context.Background(), sc)
	if err != nil {
		t.Fatal(err)
	}
	rep2, err := Run(context.Background(), back)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rep1, rep2) {
		t.Fatal("round-tripped scenario produced a different report")
	}

	// The report itself round-trips through JSON.
	rj, err := rep1.JSON()
	if err != nil {
		t.Fatal(err)
	}
	back2, err := ParseReport(rj)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rep1, back2) {
		t.Fatal("report JSON round trip mismatch")
	}
}

// TestRunSimScenarioDelegates checks the simulation column against the
// imperative replica API on the same seed.
func TestRunSimScenarioDelegates(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-backed scenario is slow under -short/-race instrumentation")
	}
	sc := simScenario()
	rep, err := Run(context.Background(), sc)
	if err != nil {
		t.Fatal(err)
	}
	sim := rep.Results[0].Sim
	if sim == nil || sim.Replicas != 2 {
		t.Fatalf("sim point: %+v", sim)
	}

	cfg := TPCWConfigN{
		Mix: ShoppingMix(), ThinkTime: 0.5, EBs: 15,
		Duration: 300, Warmup: 30, Cooldown: 15, Seed: 99,
	}
	cfg.Tiers, err = DefaultTPCWTiers(cfg.Mix, 2)
	if err != nil {
		t.Fatal(err)
	}
	rr, err := SimulateReplicas(context.Background(), cfg, 2, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sim.Throughput != rr.Throughput || sim.MeanResponse != rr.MeanResponse {
		t.Fatalf("scenario sim %+v != SimulateReplicas %+v", sim.Throughput, rr.Throughput)
	}
}

// waitGoroutines polls until the goroutine count returns to within a
// small slack of the baseline, failing the test on timeout — the
// goroutine-leak check for canceled runs.
func waitGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= baseline+2 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutine leak after cancellation: %d goroutines, baseline %d",
				runtime.NumGoroutine(), baseline)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestRunCancelDuringSimulation cancels a simulation-backed scenario
// from its first progress event and expects a prompt ctx.Err() with no
// leaked worker goroutines.
func TestRunCancelDuringSimulation(t *testing.T) {
	baseline := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	sc := simScenario()
	sc.Workload.Replicas = 4
	canceled := make(chan struct{})
	sc.OnProgress = func(ev ProgressEvent) {
		if ev.Stage == core.StageSimulate {
			select {
			case <-canceled:
			default:
				close(canceled)
				cancel()
			}
		}
	}
	// Cancel even if no replica ever completes (paranoia against hangs).
	timer := time.AfterFunc(30*time.Second, cancel)
	defer timer.Stop()

	start := time.Now()
	_, err := Run(ctx, sc)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Run returned %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 20*time.Second {
		t.Fatalf("cancellation took %v — not prompt", elapsed)
	}
	waitGoroutines(t, baseline)
}

// TestRunCancelMidSweep cancels a MAP population sweep after its first
// population and expects ctx.Err() within one sweep step.
func TestRunCancelMidSweep(t *testing.T) {
	baseline := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	sc := modelScenario()
	sc.Populations = []int{5, 10, 15, 20, 25}
	var solved int
	sc.OnProgress = func(ev ProgressEvent) {
		if ev.Stage == core.StageSolve {
			solved++
			cancel()
		}
	}
	rep, err := Run(ctx, sc)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Run returned (%v, %v), want context.Canceled", rep, err)
	}
	if solved != 1 {
		t.Fatalf("sweep solved %d populations after cancellation, want exactly 1 (within one sweep step)", solved)
	}
	waitGoroutines(t, baseline)
}

// TestRunCancelBeforeStart: an already-canceled context never starts
// simulating.
func TestRunCancelBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	_, err := Run(ctx, simScenario())
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Run returned %v, want context.Canceled", err)
	}
	if time.Since(start) > 2*time.Second {
		t.Fatal("pre-canceled run was not immediate")
	}
}

// TestRunValidationErrors exercises the scenario validation surface at
// the facade.
func TestRunValidationErrors(t *testing.T) {
	if _, err := Run(context.Background(), Scenario{}); err == nil {
		t.Fatal("empty scenario must not run")
	}
	sc := modelScenario()
	sc.Solvers = []SolverKind{"warp-drive"}
	if _, err := Run(context.Background(), sc); err == nil {
		t.Fatal("unknown solver must not run")
	}
	ws := simScenario()
	ws.Workload.Mix = "hammering"
	if _, err := Run(context.Background(), ws); err == nil {
		t.Fatal("unknown mix must not run")
	}
}
