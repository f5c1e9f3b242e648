package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"
)

// FailurePolicy selects how RunSuite reacts to a failing cell.
type FailurePolicy string

const (
	// FailFast cancels the remaining cells on the first cell error and
	// returns it — the default, and the historical behavior.
	FailFast FailurePolicy = "fail-fast"
	// FailContinue records the failed cell (status, stage, error class)
	// in the SuiteReport and the streamed rows, then keeps running the
	// remaining cells. The suite completes and returns no error; callers
	// inspect SuiteReport.Failed.
	FailContinue FailurePolicy = "continue"
)

// Valid reports whether p names a known policy ("" means FailFast).
func (p FailurePolicy) Valid() bool {
	return p == "" || p == FailFast || p == FailContinue
}

// ErrorClass coarsely classifies a cell error for retry decisions.
type ErrorClass string

const (
	// ClassTransient marks errors worth retrying: the computation may
	// succeed on a later attempt (injected chaos, flaky I/O, ...).
	ClassTransient ErrorClass = "transient"
	// ClassPermanent marks deterministic failures retrying cannot fix
	// (validation errors, non-convergence, panics, deadlines).
	ClassPermanent ErrorClass = "permanent"
)

// transientError marks its cause as retryable.
type transientError struct{ err error }

func (e *transientError) Error() string   { return e.err.Error() }
func (e *transientError) Unwrap() error   { return e.err }
func (e *transientError) Transient() bool { return true }

// MarkTransient wraps err as transient: Classify returns ClassTransient
// and the suite engine retries it within the retry budget. A nil err
// stays nil.
func MarkTransient(err error) error {
	if err == nil {
		return nil
	}
	return &transientError{err: err}
}

// Classify buckets an error for the retry loop: transient when any error
// in the chain implements `Transient() bool` true, permanent otherwise.
// Cancellation errors are permanent — the retry loop checks
// IsCancellation separately so a canceled suite never retries.
func Classify(err error) ErrorClass {
	var t interface{ Transient() bool }
	if errors.As(err, &t) && t.Transient() {
		return ClassTransient
	}
	return ClassPermanent
}

// IsCancellation reports whether err is context cancellation or a
// deadline expiry anywhere in its chain.
func IsCancellation(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// stagedError tags its cause with the pipeline stage it failed in.
type stagedError struct {
	stage string
	err   error
}

func (e *stagedError) Error() string { return e.err.Error() }
func (e *stagedError) Unwrap() error { return e.err }

// MarkStage tags err with the pipeline stage it belongs to, so the suite
// engine can attribute the failure (CellError.Stage). A nil err stays
// nil; an existing stage tag is preserved (the innermost stage wins).
func MarkStage(err error, stage string) error {
	if err == nil {
		return nil
	}
	if StageOf(err) != "" {
		return err
	}
	return &stagedError{stage: stage, err: err}
}

// StageOf returns the pipeline stage err was tagged with, or "" when
// untagged.
func StageOf(err error) string {
	var se *stagedError
	if errors.As(err, &se) {
		return se.stage
	}
	return ""
}

// StageRun is the stage recorded for failures that no pipeline stage
// claimed: panics, runner-level errors, and anything untagged.
const StageRun = "run"

// panicError converts a recovered cell panic into an error carrying the
// goroutine stack, so one panicking cell degrades into a recorded
// failure instead of killing the whole process.
type panicError struct {
	value any
	stack string
}

func (e *panicError) Error() string { return fmt.Sprintf("panic: %v", e.value) }

// CellError is a typed per-cell failure: which cell, which pipeline
// stage, whether retrying could help, and after how many attempts the
// retry budget was spent. It wraps the cause (Unwrap), so errors.Is/As
// see through it.
type CellError struct {
	// Cell and Hash identify the failed cell.
	Cell string
	Hash string
	// Stage is the pipeline stage that failed (characterize, fit, solve,
	// simulate, validate, or "run" when unattributed).
	Stage string
	// Class is the transient-vs-permanent bucket of the final error.
	Class ErrorClass
	// Attempts counts executions of the cell, including retries.
	Attempts int
	// Stack is the recovered goroutine stack when the cell panicked.
	Stack string
	// Err is the cause.
	Err error
}

func (e *CellError) Error() string {
	return fmt.Sprintf("cell %s: %s stage (%s, attempt %d): %v", e.Cell, e.Stage, e.Class, e.Attempts, e.Err)
}

func (e *CellError) Unwrap() error { return e.Err }

// Failure converts the error into its JSON-serializable row form.
func (e *CellError) Failure() *CellFailure {
	return &CellFailure{
		Stage:    e.Stage,
		Class:    e.Class,
		Attempts: e.Attempts,
		Message:  e.Err.Error(),
		Stack:    e.Stack,
	}
}

// CellFailure is the serialized face of a CellError, recorded on failed
// suite rows (SuiteReport and JSONL output).
type CellFailure struct {
	// Stage is the pipeline stage that failed.
	Stage string `json:"stage"`
	// Class is the transient-vs-permanent bucket.
	Class ErrorClass `json:"class"`
	// Attempts counts executions of the cell, including retries.
	Attempts int `json:"attempts,omitempty"`
	// Message is the final error text.
	Message string `json:"message"`
	// Stack is the recovered goroutine stack when the cell panicked.
	Stack string `json:"stack,omitempty"`
}

// newCellError wraps a final cell failure with its identity, stage,
// class, and attempt count.
func newCellError(cell SuiteCell, attempts int, err error) *CellError {
	ce := &CellError{
		Cell:     cell.Name,
		Hash:     cell.Hash,
		Stage:    StageOf(err),
		Class:    Classify(err),
		Attempts: attempts,
		Err:      err,
	}
	var pe *panicError
	if errors.As(err, &pe) {
		ce.Stack = pe.stack
	}
	if ce.Stage == "" {
		ce.Stage = StageRun
	}
	return ce
}

// RetryPolicy bounds per-cell retries of transient errors with
// deterministic exponential backoff (no jitter, so suite runs stay
// reproducible).
type RetryPolicy struct {
	// MaxRetries is the number of additional attempts after the first
	// failure (0 = never retry). Only transient errors are retried.
	MaxRetries int `json:"max_retries,omitempty"`
	// Backoff is the delay before the first retry in seconds, doubling on
	// every further retry (default 0.1, capped at 30s per wait).
	Backoff float64 `json:"backoff,omitempty"`
}

func (r RetryPolicy) validate() error {
	if r.MaxRetries < 0 {
		return fmt.Errorf("core: retry max_retries %d must be >= 0", r.MaxRetries)
	}
	if r.Backoff < 0 {
		return fmt.Errorf("core: retry backoff %v must be >= 0", r.Backoff)
	}
	return nil
}

// delay returns the wait before retrying after the attempt-th failure
// (attempt counts from 1).
func (r RetryPolicy) delay(attempt int) time.Duration {
	base := r.Backoff
	if base == 0 {
		base = 0.1
	}
	d := base * math.Pow(2, float64(attempt-1))
	if d > 30 {
		d = 30
	}
	return time.Duration(d * float64(time.Second))
}

// FaultHook is a deterministic fault-injection point: the facade's cell
// runner calls it before every pipeline stage of every cell with the
// cell's content hash and the stage name. A non-nil return fails the
// stage; the hook may also sleep (delay injection) or panic (crash
// injection). Production runs leave it nil. See internal/faultinject.
type FaultHook func(cellHash, stage string) error
