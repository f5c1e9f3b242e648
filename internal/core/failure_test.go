package core

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/inference"
	"repro/internal/markov"
)

func TestClassifyAndMarkTransient(t *testing.T) {
	if Classify(errors.New("x")) != ClassPermanent {
		t.Fatal("plain error should be permanent")
	}
	err := MarkTransient(errors.New("flaky"))
	if Classify(err) != ClassTransient {
		t.Fatal("marked error should be transient")
	}
	// Transience survives wrapping.
	if Classify(fmt.Errorf("outer: %w", err)) != ClassTransient {
		t.Fatal("wrapped transient error should stay transient")
	}
	if MarkTransient(nil) != nil {
		t.Fatal("MarkTransient(nil) should be nil")
	}
	if Classify(context.Canceled) != ClassPermanent {
		t.Fatal("cancellation should classify permanent")
	}
}

func TestMarkStage(t *testing.T) {
	if MarkStage(nil, StageSolve) != nil {
		t.Fatal("MarkStage(nil) should be nil")
	}
	base := errors.New("boom")
	err := MarkStage(base, StageFit)
	if StageOf(err) != StageFit {
		t.Fatalf("stage = %q, want %q", StageOf(err), StageFit)
	}
	if !errors.Is(err, base) {
		t.Fatal("MarkStage must wrap, not replace")
	}
	// The innermost stage wins: re-marking does not re-attribute.
	if got := StageOf(MarkStage(err, StageSolve)); got != StageFit {
		t.Fatalf("re-marked stage = %q, want %q (innermost)", got, StageFit)
	}
	if StageOf(base) != "" {
		t.Fatal("untagged error should have empty stage")
	}
}

func TestRetryPolicyDelay(t *testing.T) {
	var r RetryPolicy // zero value: default 0.1s base
	if got := r.delay(1); got != 100*time.Millisecond {
		t.Fatalf("delay(1) = %v, want 100ms", got)
	}
	if got := r.delay(3); got != 400*time.Millisecond {
		t.Fatalf("delay(3) = %v, want 400ms", got)
	}
	r.Backoff = 20
	if got := r.delay(5); got != 30*time.Second {
		t.Fatalf("delay(5) = %v, want the 30s cap", got)
	}
	if (RetryPolicy{MaxRetries: -1}).validate() == nil {
		t.Fatal("negative max_retries should be rejected")
	}
	if (RetryPolicy{Backoff: -1}).validate() == nil {
		t.Fatal("negative backoff should be rejected")
	}
}

func TestRunSuiteRejectsUnknownPolicy(t *testing.T) {
	s := gridSuite()
	s.OnError = FailurePolicy("best-effort")
	sink := NewMemorySink()
	if _, err := RunSuite(context.Background(), s, stubRunner, sink); err == nil || !strings.Contains(err.Error(), "best-effort") {
		t.Fatalf("err = %v, want unknown-policy error", err)
	}
}

// TestRunSuiteContinuePolicyRecordsFailures checks the continue policy:
// failing cells become recorded rows (status, stage, class) while every
// healthy cell completes, identically at any worker count.
func TestRunSuiteContinuePolicyRecordsFailures(t *testing.T) {
	s := gridSuite()
	s.OnError = FailContinue
	cells, err := s.Expand()
	if err != nil {
		t.Fatal(err)
	}
	badHash := cells[1].Hash
	boom := MarkStage(errors.New("injected solve failure"), StageSolve)
	runner := func(ctx context.Context, cell SuiteCell) (*Report, error) {
		if cell.Hash == badHash {
			return nil, boom
		}
		return stubRunner(ctx, cell)
	}

	var want []byte
	for _, workers := range []int{1, 2, 4} {
		s.Workers = workers
		sink := NewMemorySink()
		rep, err := RunSuite(context.Background(), s, runner, sink)
		if err != nil {
			t.Fatalf("workers=%d: continue policy must not fail the suite: %v", workers, err)
		}
		if rep.Failed != 1 {
			t.Fatalf("workers=%d: Failed = %d, want 1", workers, rep.Failed)
		}
		row := rep.Rows[1]
		if row.Status != CellStatusFailed || row.Report != nil || row.Error == nil {
			t.Fatalf("workers=%d: failed row = %+v", workers, row)
		}
		if row.Error.Stage != StageSolve || row.Error.Class != ClassPermanent || row.Error.Attempts != 1 {
			t.Fatalf("workers=%d: failure detail = %+v", workers, row.Error)
		}
		if !strings.Contains(row.Error.Message, "injected solve failure") {
			t.Fatalf("workers=%d: message = %q", workers, row.Error.Message)
		}
		for i, r := range rep.Rows {
			if i == 1 {
				continue
			}
			if r.Status != CellStatusOK || r.Report == nil {
				t.Fatalf("workers=%d: healthy row %d = %+v", workers, i, r)
			}
		}
		// The failed row streams to sinks too, carrying the error.
		streamed := 0
		for _, r := range sink.Rows() {
			if r.Status == CellStatusFailed {
				streamed++
			}
		}
		if streamed != 1 {
			t.Fatalf("workers=%d: %d failed rows streamed, want 1", workers, streamed)
		}
		got, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = got
		} else if !reflect.DeepEqual(want, got) {
			t.Fatalf("workers=%d: report differs from workers=1 run", workers)
		}
	}
}

// TestRunSuiteRetriesTransient checks the retry loop: transient errors
// are re-attempted within the budget, permanent errors are not, and the
// attempt count lands in the failure record when the budget is spent.
func TestRunSuiteRetriesTransient(t *testing.T) {
	s := gridSuite()
	s.Workers = 2
	s.Retry = RetryPolicy{MaxRetries: 2, Backoff: 0.001}
	cells, err := s.Expand()
	if err != nil {
		t.Fatal(err)
	}
	flakyHash, doomedHash := cells[0].Hash, cells[3].Hash
	var calls sync.Map
	runner := func(ctx context.Context, cell SuiteCell) (*Report, error) {
		n, _ := calls.LoadOrStore(cell.Hash, new(int32))
		attempt := atomic.AddInt32(n.(*int32), 1)
		switch cell.Hash {
		case flakyHash:
			if attempt <= 2 {
				return nil, MarkTransient(fmt.Errorf("flaky attempt %d", attempt))
			}
		case doomedHash:
			return nil, MarkTransient(errors.New("always failing"))
		}
		return stubRunner(ctx, cell)
	}
	s.OnError = FailContinue
	rep, err := RunSuite(context.Background(), s, runner)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Rows[0].Status != CellStatusOK {
		t.Fatalf("flaky cell should recover: %+v", rep.Rows[0])
	}
	if n, _ := calls.Load(flakyHash); atomic.LoadInt32(n.(*int32)) != 3 {
		t.Fatalf("flaky cell ran %d times, want 3", atomic.LoadInt32(n.(*int32)))
	}
	doomed := rep.Rows[3]
	if doomed.Status != CellStatusFailed || doomed.Error.Attempts != 3 || doomed.Error.Class != ClassTransient {
		t.Fatalf("doomed row = %+v / %+v", doomed, doomed.Error)
	}

	// Permanent errors must not burn retry attempts.
	var permCalls int32
	permRunner := func(ctx context.Context, cell SuiteCell) (*Report, error) {
		if cell.Hash == flakyHash {
			atomic.AddInt32(&permCalls, 1)
			return nil, errors.New("deterministic failure")
		}
		return stubRunner(ctx, cell)
	}
	if _, err := RunSuite(context.Background(), s, permRunner); err != nil {
		t.Fatal(err)
	}
	if permCalls != 1 {
		t.Fatalf("permanent error retried: %d calls, want 1", permCalls)
	}
}

// TestRunSuitePanicRecovery checks that a panicking cell is converted
// into a CellError carrying the stack — recorded under continue, the
// suite error under fail-fast — and that the pool drains cleanly either
// way.
func TestRunSuitePanicRecovery(t *testing.T) {
	s := gridSuite()
	s.Workers = 3
	cells, err := s.Expand()
	if err != nil {
		t.Fatal(err)
	}
	badHash := cells[2].Hash
	runner := func(ctx context.Context, cell SuiteCell) (*Report, error) {
		if cell.Hash == badHash {
			panic("cell exploded")
		}
		return stubRunner(ctx, cell)
	}

	before := runtime.NumGoroutine()

	s.OnError = FailContinue
	rep, err := RunSuite(context.Background(), s, runner)
	if err != nil {
		t.Fatalf("continue policy must survive a panic: %v", err)
	}
	row := rep.Rows[2]
	if row.Status != CellStatusFailed || row.Error == nil {
		t.Fatalf("panicked row = %+v", row)
	}
	if !strings.Contains(row.Error.Message, "cell exploded") || row.Error.Stack == "" {
		t.Fatalf("panic detail = %+v", row.Error)
	}
	if !strings.Contains(row.Error.Stack, "goroutine") {
		t.Fatalf("stack not captured: %q", row.Error.Stack)
	}
	for i, r := range rep.Rows {
		if i != 2 && r.Status != CellStatusOK {
			t.Fatalf("healthy row %d = %+v", i, r)
		}
	}

	s.OnError = FailFast
	_, err = RunSuite(context.Background(), s, runner)
	if err == nil || !strings.Contains(err.Error(), "panic: cell exploded") {
		t.Fatalf("fail-fast err = %v, want wrapped panic", err)
	}
	var ce *CellError
	if !errors.As(err, &ce) || ce.Stage != StageRun || ce.Stack == "" {
		t.Fatalf("fail-fast CellError = %+v", ce)
	}

	// The worker pool must drain without leaking goroutines.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before+2 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before+2 {
		t.Fatalf("goroutines %d -> %d: leak", before, n)
	}
}

// TestRunSuiteCancellationAbortsContinuePolicy pins that a canceled
// suite context aborts the run even under the continue policy: user
// cancellation is not a per-cell failure to be recorded.
func TestRunSuiteCancellationAbortsContinuePolicy(t *testing.T) {
	s := gridSuite()
	s.Workers = 1
	s.OnError = FailContinue
	ctx, cancel := context.WithCancel(context.Background())
	var ran int32
	runner := func(ctx context.Context, cell SuiteCell) (*Report, error) {
		if atomic.AddInt32(&ran, 1) == 2 {
			cancel()
			return nil, ctx.Err()
		}
		return stubRunner(ctx, cell)
	}
	_, err := RunSuite(ctx, s, runner)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := atomic.LoadInt32(&ran); n > 3 {
		t.Fatalf("%d cells ran after cancellation", n)
	}
}

// TestMemoEvictsCancellation is the regression test for memo poisoning:
// a cancellation-class error must not be cached forever against the key.
func TestMemoEvictsCancellation(t *testing.T) {
	m := NewMemo()
	calls := 0
	_, err := lookup(m, memoSolve, "k", func() ([]PredictionN, error) {
		calls++
		return nil, context.DeadlineExceeded
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("first call err = %v", err)
	}
	got, err := lookup(m, memoSolve, "k", func() ([]PredictionN, error) {
		calls++
		return []PredictionN{{}}, nil
	})
	if err != nil || len(got) != 1 {
		t.Fatalf("post-eviction call = (%v, %v)", got, err)
	}
	if calls != 2 {
		t.Fatalf("compute ran %d times, want 2 (cancellation evicted)", calls)
	}
	// context.Canceled behaves the same.
	if _, err := m.Characterize("c", func() (inference.Characterization, error) {
		return inference.Characterization{}, fmt.Errorf("wrapped: %w", context.Canceled)
	}); !errors.Is(err, context.Canceled) {
		t.Fatal("unexpected first error")
	}
	if v, err := m.Characterize("c", func() (inference.Characterization, error) {
		return inference.Characterization{MeanServiceTime: 1}, nil
	}); err != nil || v.MeanServiceTime != 1 {
		t.Fatalf("canceled entry not evicted: (%v, %v)", v, err)
	}
}

// TestMemoPanicDoesNotWedgeWaiters checks that a panicking compute
// evicts its entry and fails concurrent waiters instead of leaving them
// blocked on a never-closed channel.
func TestMemoPanicDoesNotWedgeWaiters(t *testing.T) {
	m := NewMemo()
	func() {
		defer func() { recover() }()
		m.Fit("p", func() (markov.FitResult, error) { panic("compute died") })
	}()
	// The key must be recomputable afterwards.
	v, err := m.Fit("p", func() (markov.FitResult, error) { return markov.FitResult{SCV: 2}, nil })
	if err != nil || v.SCV != 2 {
		t.Fatalf("post-panic Fit = (%v, %v)", v, err)
	}
}

// TestReadJSONLResumeFailedAndMalformed checks resume semantics over a
// report file containing ok, failed, skipped, corrupt and torn rows:
// failed hashes re-run, a later success supersedes an earlier failure,
// and unparsable lines are counted, not fatal.
func TestReadJSONLResumeFailedAndMalformed(t *testing.T) {
	path := filepath.Join(t.TempDir(), "rows.jsonl")
	sink, err := OpenJSONLSink(path)
	if err != nil {
		t.Fatal(err)
	}
	rows := []SuiteRow{
		{Index: 0, Hash: "ok1", Status: CellStatusOK, Report: &Report{}},
		{Index: 1, Hash: "bad", Status: CellStatusFailed, Error: &CellFailure{Stage: StageSolve, Class: ClassPermanent, Message: "x"}},
		{Index: 2, Hash: "skip", Skipped: true, Status: CellStatusSkipped},
		{Index: 3, Hash: "healed", Status: CellStatusFailed, Error: &CellFailure{Stage: StageRun, Class: ClassTransient, Message: "y"}},
		// A later appended run succeeded for "healed".
		{Index: 3, Hash: "healed", Status: CellStatusOK, Report: &Report{}},
		// Pre-status rows (older files) count as done via their report.
		{Index: 4, Hash: "legacy", Report: &Report{}},
	}
	for _, r := range rows {
		if err := sink.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	// One corrupt full line and one torn trailing line.
	if _, err := f.WriteString("{garbage}\n" + `{"index": 9, "hash": "torn`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	st, err := ReadJSONLResume(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(st.Done, map[string]bool{"ok1": true, "healed": true, "legacy": true}) {
		t.Fatalf("Done = %v", st.Done)
	}
	if !reflect.DeepEqual(st.Failed, map[string]bool{"bad": true}) {
		t.Fatalf("Failed = %v", st.Failed)
	}
	if st.Malformed != 2 {
		t.Fatalf("Malformed = %d, want 2", st.Malformed)
	}
	// ReadJSONLHashes excludes failed rows so a resume retries them.
	done, err := ReadJSONLHashes(path)
	if err != nil {
		t.Fatal(err)
	}
	if done["bad"] || !done["ok1"] {
		t.Fatalf("hashes = %v", done)
	}
	// Missing file: empty state, no error.
	empty, err := ReadJSONLResume(filepath.Join(t.TempDir(), "none.jsonl"))
	if err != nil || len(empty.Done) != 0 || len(empty.Failed) != 0 || empty.Malformed != 0 {
		t.Fatalf("missing file state = %+v, %v", empty, err)
	}
}
