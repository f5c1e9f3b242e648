package burst

import (
	"bytes"
	"context"
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/ctmc"
	"repro/internal/faultinject"
)

// faultSuite is the injection target: a fast, model-only population
// grid whose cells exercise characterize, fit, and solve.
func faultSuite() Suite {
	s := popSuite()
	s.Name = "fault-suite"
	return s
}

// rowsJSON serializes just the rows of a suite report, so injected and
// clean runs can be compared without the memo counters (retries replay
// stages, changing hit counts but never results).
func rowsJSON(t *testing.T, rep *SuiteReport) []byte {
	t.Helper()
	data, err := (&SuiteReport{Rows: rep.Rows}).JSON()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestFaultErrorAtEachStageContinue injects a permanent error at each
// pipeline stage (characterize, fit, solve) into a different cell and
// runs the suite under the continue policy: every healthy cell must
// complete with its normal report, and each failed cell must be
// recorded with the injected stage — identically at any worker count.
func TestFaultErrorAtEachStageContinue(t *testing.T) {
	s := faultSuite()
	cells, err := s.Expand()
	if err != nil {
		t.Fatal(err)
	}
	clean, err := RunSuite(context.Background(), faultSuite())
	if err != nil {
		t.Fatal(err)
	}

	stageByCell := map[string]string{
		cells[0].Hash: StageCharacterize,
		cells[1].Hash: StageFit,
		cells[2].Hash: StageSolve,
	}
	var want []byte
	for _, workers := range []int{1, 3} {
		plan := faultinject.NewPlan(
			faultinject.Fault{Key: cells[0].Hash, Stage: StageCharacterize, Kind: faultinject.KindError},
			faultinject.Fault{Key: cells[1].Hash, Stage: StageFit, Kind: faultinject.KindError},
			faultinject.Fault{Key: cells[2].Hash, Stage: StageSolve, Kind: faultinject.KindError},
		)
		s := faultSuite()
		s.Workers = workers
		s.OnError = FailContinue
		s.Inject = plan.Hook()
		rep, err := RunSuite(context.Background(), s)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if rep.Failed != 3 {
			t.Fatalf("workers=%d: Failed = %d, want 3", workers, rep.Failed)
		}
		for i, row := range rep.Rows {
			if stage, bad := stageByCell[row.Hash]; bad {
				if row.Status != CellStatusFailed || row.Error == nil {
					t.Fatalf("workers=%d row %d: %+v", workers, i, row)
				}
				if row.Error.Stage != stage || row.Error.Class != ClassPermanent {
					t.Fatalf("workers=%d row %d: failure = %+v, want stage %q", workers, i, row.Error, stage)
				}
				continue
			}
			if row.Status != CellStatusOK || row.Report == nil {
				t.Fatalf("workers=%d: healthy row %d = %+v", workers, i, row)
			}
			// Healthy cells are unaffected by their neighbors' faults.
			cleanJSON, err := clean.Rows[i].Report.JSON()
			if err != nil {
				t.Fatal(err)
			}
			gotJSON, err := row.Report.JSON()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(cleanJSON, gotJSON) {
				t.Errorf("workers=%d: healthy cell %d diverged from clean run", workers, i)
			}
		}
		got := rowsJSON(t, rep)
		if want == nil {
			want = got
		} else if !bytes.Equal(want, got) {
			t.Fatalf("workers=%d: rows differ from workers=1 run", workers)
		}
	}
}

// TestFaultFailFastAbortsSuite injects one permanent solve error under
// the default fail-fast policy: the suite must return a CellError for
// the injected cell and drain without leaking goroutines.
func TestFaultFailFastAbortsSuite(t *testing.T) {
	baseline := runtime.NumGoroutine()
	s := faultSuite()
	cells, err := s.Expand()
	if err != nil {
		t.Fatal(err)
	}
	plan := faultinject.NewPlan(faultinject.Fault{Key: cells[1].Hash, Stage: StageSolve, Kind: faultinject.KindError})
	s.Inject = plan.Hook()
	s.Workers = 2
	rep, err := RunSuite(context.Background(), s)
	if rep != nil || err == nil {
		t.Fatalf("RunSuite = (%v, %v), want fail-fast error", rep, err)
	}
	var ce *CellError
	if !errors.As(err, &ce) || ce.Stage != StageSolve || ce.Hash != cells[1].Hash {
		t.Fatalf("err = %v (CellError %+v)", err, ce)
	}
	var ie *faultinject.Error
	if !errors.As(err, &ie) {
		t.Fatalf("injected cause lost from chain: %v", err)
	}
	waitGoroutines(t, baseline)
}

// TestFaultTransientRetryRecovers injects a transient solve error that
// fires twice per cell: with two retries budgeted, every cell recovers
// and the rows are bit-identical to an uninjected run.
func TestFaultTransientRetryRecovers(t *testing.T) {
	clean, err := RunSuite(context.Background(), faultSuite())
	if err != nil {
		t.Fatal(err)
	}
	plan := faultinject.NewPlan(faultinject.Fault{
		Stage: StageSolve, Kind: faultinject.KindError, Transient: true, Times: 2,
	})
	s := faultSuite()
	s.Workers = 2
	s.Retry = RetryPolicy{MaxRetries: 2, Backoff: 0.001}
	s.Inject = plan.Hook()
	rep, err := RunSuite(context.Background(), s)
	if err != nil {
		t.Fatalf("retries should absorb the transient faults: %v", err)
	}
	if rep.Failed != 0 {
		t.Fatalf("Failed = %d, want 0", rep.Failed)
	}
	// Every cell fired the fault exactly twice (Times budget per cell).
	if got, wantFired := plan.Fired(), 2*len(rep.Rows); got != wantFired {
		t.Fatalf("fired = %d, want %d", got, wantFired)
	}
	if !bytes.Equal(rowsJSON(t, clean), rowsJSON(t, rep)) {
		t.Fatal("recovered rows differ from the uninjected run")
	}

	// With the retry budget below the fault count, the cells fail and
	// the attempt accounting shows the spent budget.
	plan2 := faultinject.NewPlan(faultinject.Fault{
		Stage: StageSolve, Kind: faultinject.KindError, Transient: true, Times: 3,
	})
	s2 := faultSuite()
	s2.OnError = FailContinue
	s2.Retry = RetryPolicy{MaxRetries: 1, Backoff: 0.001}
	s2.Inject = plan2.Hook()
	rep2, err := RunSuite(context.Background(), s2)
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Failed != len(rep2.Rows) {
		t.Fatalf("Failed = %d, want all %d", rep2.Failed, len(rep2.Rows))
	}
	for _, row := range rep2.Rows {
		if row.Error == nil || row.Error.Attempts != 2 || row.Error.Class != ClassTransient {
			t.Fatalf("row %d failure = %+v", row.Index, row.Error)
		}
	}
}

// TestFaultPanicMidSuite injects a panic into one cell mid-grid under
// both policies: with continue every other in-flight cell finishes and
// the panicking cell records its stack; with fail-fast the suite drains
// cleanly. Run under -race (make faults) this also proves the recovery
// path is data-race free.
func TestFaultPanicMidSuite(t *testing.T) {
	baseline := runtime.NumGoroutine()
	s := faultSuite()
	cells, err := s.Expand()
	if err != nil {
		t.Fatal(err)
	}
	target := cells[2].Hash

	s = faultSuite()
	s.Workers = 4
	s.OnError = FailContinue
	s.Inject = faultinject.NewPlan(faultinject.Fault{Key: target, Stage: StageFit, Kind: faultinject.KindPanic}).Hook()
	rep, err := RunSuite(context.Background(), s)
	if err != nil {
		t.Fatalf("continue policy must absorb the panic: %v", err)
	}
	if rep.Failed != 1 {
		t.Fatalf("Failed = %d, want 1", rep.Failed)
	}
	for _, row := range rep.Rows {
		if row.Hash == target {
			if row.Status != CellStatusFailed || row.Error == nil || row.Error.Stack == "" {
				t.Fatalf("panicked row = %+v / %+v", row, row.Error)
			}
			if !strings.Contains(row.Error.Message, "injected panic") {
				t.Fatalf("message = %q", row.Error.Message)
			}
			continue
		}
		if row.Status != CellStatusOK || row.Report == nil {
			t.Fatalf("healthy row %d = %+v", row.Index, row)
		}
	}

	s = faultSuite()
	s.Workers = 4
	s.Inject = faultinject.NewPlan(faultinject.Fault{Key: target, Stage: StageFit, Kind: faultinject.KindPanic}).Hook()
	if _, err := RunSuite(context.Background(), s); err == nil || !strings.Contains(err.Error(), "panic") {
		t.Fatalf("fail-fast err = %v, want recovered panic", err)
	}
	waitGoroutines(t, baseline)
}

// TestFaultDeadlineDegradesSolve delays the solve stage past the cell's
// Scenario.Deadline: the cell must not fail — its exact MAP solve
// degrades to the decomp approximation (solved under the still-live
// parent context) with the reason recorded — while untouched cells keep
// their exact results.
func TestFaultDeadlineDegradesSolve(t *testing.T) {
	s := faultSuite()
	// The deadline applies to every cell, so keep the grid to small
	// populations whose exact solves finish in milliseconds: generous
	// enough that healthy cells never trip it, tight enough that the
	// injected delay pushes the target cell past it.
	s.Grid.Populations = [][]int{{3}, {5}, {8}}
	s.Base.Deadline = 1.5
	cells, err := s.Expand()
	if err != nil {
		t.Fatal(err)
	}
	target := cells[1].Hash
	s.Workers = 2
	s.Inject = faultinject.NewPlan(faultinject.Fault{
		Key: target, Stage: StageSolve, Kind: faultinject.KindDelay, Delay: 4 * time.Second,
	}).Hook()
	rep, err := RunSuite(context.Background(), s)
	if err != nil {
		t.Fatalf("deadline expiry must degrade, not fail: %v", err)
	}
	for _, row := range rep.Rows {
		if row.Status != CellStatusOK || row.Report == nil {
			t.Fatalf("row %d = %+v", row.Index, row)
		}
		r := row.Report
		if row.Hash == target {
			if !r.Degraded || !strings.Contains(r.FallbackReason, "deadline") ||
				!strings.Contains(r.FallbackReason, "decomp approximation reported instead") {
				t.Fatalf("degraded report = Degraded=%v reason=%q", r.Degraded, r.FallbackReason)
			}
			for _, res := range r.Results {
				if res.MAP != nil {
					t.Fatal("degraded cell must not carry exact MAP results")
				}
				if res.Decomp == nil || res.Decomp.Throughput <= 0 {
					t.Fatalf("degraded cell missing the decomp approximation: %+v", res)
				}
				if res.Bounds == nil || res.Bounds.UpperX <= 0 {
					t.Fatalf("degraded cell missing bounds: %+v", res)
				}
				if res.MVA == nil {
					t.Fatal("degraded cell should still carry the MVA baseline")
				}
			}
			continue
		}
		if r.Degraded {
			t.Fatalf("untouched cell %d degraded: %q", row.Index, r.FallbackReason)
		}
		for _, res := range r.Results {
			if res.MAP == nil {
				t.Fatalf("untouched cell %d lost its exact solve", row.Index)
			}
		}
	}
}

// TestFaultNonConvergenceDegrades starves the iterative CTMC solver
// (one sweep, no dense fallback) so the exact MAP solve cannot
// converge: Run must return a degraded report carrying the decomp
// approximation, the requested bounds, and the MVA baseline instead of
// an error.
func TestFaultNonConvergenceDegrades(t *testing.T) {
	sc := modelScenario()
	sc.Planner = &PlannerOptions{Solver: ctmc.Options{MaxIter: 1, DenseCutoff: 1}}
	rep, err := Run(context.Background(), sc)
	if err != nil {
		t.Fatalf("non-convergence must degrade, not fail: %v", err)
	}
	if !rep.Degraded || !strings.Contains(rep.FallbackReason, "converge") ||
		!strings.Contains(rep.FallbackReason, "decomp approximation reported instead") {
		t.Fatalf("Degraded=%v reason=%q", rep.Degraded, rep.FallbackReason)
	}
	for _, res := range rep.Results {
		if res.MAP != nil {
			t.Fatal("degraded report must not carry exact MAP results")
		}
		if res.Decomp == nil || res.Decomp.Throughput <= 0 {
			t.Fatalf("degraded report missing the decomp approximation: %+v", res)
		}
		if res.Bounds == nil || res.MVA == nil {
			t.Fatalf("degraded report missing fallback columns: %+v", res)
		}
		if res.Bounds.LowerX <= 0 || res.Bounds.UpperX < res.Bounds.LowerX {
			t.Fatalf("implausible bounds: %+v", res.Bounds)
		}
	}
}

// TestFaultStateLimitDegrades caps the state space below the model's
// size: the builder's clean refusal (ErrStateLimit) degrades the report
// to the decomp approximation — whose per-station chains have no state
// limit — instead of failing the scenario.
func TestFaultStateLimitDegrades(t *testing.T) {
	sc := modelScenario()
	sc.Planner = &PlannerOptions{Solver: ctmc.Options{MaxStates: 4}}
	rep, err := Run(context.Background(), sc)
	if err != nil {
		t.Fatalf("state-limit refusal must degrade, not fail: %v", err)
	}
	if !rep.Degraded || !strings.Contains(rep.FallbackReason, "state space") {
		t.Fatalf("Degraded=%v reason=%q", rep.Degraded, rep.FallbackReason)
	}
	for _, res := range rep.Results {
		if res.Decomp == nil {
			t.Fatalf("missing decomp fallback: %+v", res)
		}
		if res.Bounds == nil {
			t.Fatalf("missing bounds fallback: %+v", res)
		}
	}
}

// TestFaultResumeRerunsFailedCells runs a suite with one injected
// failure into a JSONL file, then resumes without the fault: only the
// failed cell re-runs, and the resume state reports it.
func TestFaultResumeRerunsFailedCells(t *testing.T) {
	path := t.TempDir() + "/rows.jsonl"
	s := faultSuite()
	cells, err := s.Expand()
	if err != nil {
		t.Fatal(err)
	}
	target := cells[2].Hash
	s.OnError = FailContinue
	s.Inject = faultinject.NewPlan(faultinject.Fault{Key: target, Stage: StageSolve, Kind: faultinject.KindError}).Hook()
	sink, err := OpenJSONLSink(path)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := RunSuite(context.Background(), s, sink)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed != 1 {
		t.Fatalf("Failed = %d, want 1", rep.Failed)
	}

	st, err := ReadJSONLResume(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Done) != len(cells)-1 || !st.Failed[target] || st.Malformed != 0 {
		t.Fatalf("resume state = done %d, failed %v, malformed %d", len(st.Done), st.Failed, st.Malformed)
	}

	// Resume without the fault: the failed cell re-runs and succeeds.
	s2 := faultSuite()
	s2.OnError = FailContinue
	s2.Skip = st.Done
	app, err := AppendJSONLSink(path)
	if err != nil {
		t.Fatal(err)
	}
	var ran int
	s2.OnProgress = func(ev SuiteEvent) {
		if ev.Stage == SuiteStageDone {
			ran++
		}
	}
	rep2, err := RunSuite(context.Background(), s2, app)
	if err != nil {
		t.Fatal(err)
	}
	if ran != 1 || rep2.Skipped != len(cells)-1 || rep2.Failed != 0 {
		t.Fatalf("resume ran %d cells (skipped %d, failed %d), want exactly the failed one",
			ran, rep2.Skipped, rep2.Failed)
	}
	// The healed file now resumes to fully done.
	st2, err := ReadJSONLResume(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(st2.Done) != len(cells) || len(st2.Failed) != 0 {
		t.Fatalf("post-heal state = done %d, failed %v", len(st2.Done), st2.Failed)
	}
}

// cancelDuringFallbackScenario refuses the exact solve (state limit) so
// the ladder hops to the decomp fallback, and cancels the returned
// context as soon as that fallback reports its first population.
func cancelDuringFallbackScenario() (Scenario, context.Context) {
	ctx, cancel := context.WithCancel(context.Background())
	sc := modelScenario()
	sc.Populations = []int{5, 10, 15}
	sc.Planner = &PlannerOptions{Solver: ctmc.Options{MaxStates: 4}}
	sc.OnProgress = func(ev ProgressEvent) {
		if ev.Stage == StageSolve {
			cancel()
		}
	}
	return sc, ctx
}

// TestFaultCancelDuringDecompFallback cancels the caller's context
// while the decomp fallback tier is solving. The cancellation must abort
// the run with context.Canceled, never fold into a successful degraded
// report, and a suite streaming JSONL rows must not record the cell as
// done (a later -resume would skip it).
func TestFaultCancelDuringDecompFallback(t *testing.T) {
	sc, ctx := cancelDuringFallbackScenario()
	rep, err := Run(ctx, sc)
	if !errors.Is(err, context.Canceled) {
		if rep != nil {
			t.Fatalf("Run = (Degraded=%v reason=%q), err %v; want context.Canceled", rep.Degraded, rep.FallbackReason, err)
		}
		t.Fatalf("Run err = %v, want context.Canceled", err)
	}

	base, ctx := cancelDuringFallbackScenario()
	s := Suite{Name: "cancel-fallback", Base: base}
	cells, err := s.Expand()
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/rows.jsonl"
	sink, err := OpenJSONLSink(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunSuite(ctx, s, sink); !errors.Is(err, context.Canceled) {
		t.Fatalf("RunSuite err = %v, want context.Canceled", err)
	}
	st, err := ReadJSONLResume(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cells {
		if st.Done[c.Hash] {
			t.Fatalf("canceled cell %s written as an ok row", c.Name)
		}
	}
}
