// Package ctmc computes stationary distributions of continuous-time
// Markov chains. Small chains (up to 512 states by default) are solved
// directly by dense LU. Larger sparse chains — such as the MAP queueing
// network underlying the paper's capacity-planning model — are solved
// iteratively: forward Gauss-Seidel sweeps first, and symmetric
// (forward-then-backward) Gauss-Seidel once the forward residual
// plateaus, as it does on MAP-modulated networks.
package ctmc

import (
	"context"
	"errors"
	"fmt"
	"math"

	"repro/internal/matrix"
)

// Options tunes the iterative solver. The zero value uses defaults.
type Options struct {
	// Tol is the convergence threshold on the residual ||pi*Q||_inf
	// relative to the largest transition rate (default 1e-10).
	Tol float64 `json:"tol,omitempty"`
	// MaxIter bounds the iterations of the symmetric Gauss-Seidel stage
	// (default 100000); the forward stage before it runs at most
	// min(MaxIter, 1500) sweeps.
	MaxIter int `json:"max_iter,omitempty"`
	// DenseCutoff is the dimension below which a direct dense solve is
	// used (default 512).
	DenseCutoff int `json:"dense_cutoff,omitempty"`
	// Initial optionally seeds the iterative solvers with a starting
	// distribution of the chain's dimension — e.g. the stationary vector
	// of a nearby chain, as in warm-started population sweeps. It is
	// copied and renormalized before use; negative entries are clamped to
	// zero. A mismatched length or non-positive total mass falls back to
	// the uniform start. The dense direct solve ignores it.
	Initial []float64 `json:"initial,omitempty"`
	// Backend selects the generator representation used by model builders
	// that construct the chain (BackendAuto picks CSR below a state-count
	// threshold and matrix-free above it). The solver itself is
	// representation-agnostic — it consumes whichever Operator the
	// builder hands it.
	Backend Backend `json:"backend,omitempty"`
	// MaxStates caps how many states a model builder may enumerate before
	// erroring out cleanly instead of exhausting memory. Zero means the
	// builder's per-backend default.
	MaxStates int `json:"max_states,omitempty"`
}

func (o Options) withDefaults() Options {
	if o.Tol <= 0 {
		o.Tol = 1e-10
	}
	if o.MaxIter <= 0 {
		o.MaxIter = 100000
	}
	if o.DenseCutoff <= 0 {
		o.DenseCutoff = 512
	}
	return o
}

// ErrNoConvergence is returned when the symmetric Gauss-Seidel stage
// exhausts MaxIter without reaching the requested residual.
var ErrNoConvergence = errors.New("ctmc: steady-state iteration did not converge")

// Result carries the stationary vector and solver diagnostics.
type Result struct {
	Pi []float64
	// Iterations counts the sweeps of both iterative stages (a symmetric
	// Gauss-Seidel iteration is two); zero for the dense solve.
	Iterations int
	Residual   float64
	// Method is "dense-lu", "gauss-seidel" or "symmetric-gauss-seidel".
	Method string
}

// ValidateGenerator checks that q is a proper CTMC generator: zero row
// sums, non-negative off-diagonal entries, non-positive diagonal.
func ValidateGenerator(q *matrix.CSR) error {
	for r, s := range q.RowSums() {
		if math.Abs(s) > 1e-6 {
			return fmt.Errorf("ctmc: row %d sums to %v, want 0", r, s)
		}
	}
	for r := 0; r < q.N; r++ {
		for k := q.RowPtr[r]; k < q.RowPtr[r+1]; k++ {
			v := q.Vals[k]
			if q.ColIdx[k] == r {
				if v > 1e-12 {
					return fmt.Errorf("ctmc: diagonal entry (%d,%d) = %v must be <= 0", r, r, v)
				}
			} else if v < 0 {
				return fmt.Errorf("ctmc: off-diagonal entry (%d,%d) = %v must be >= 0", r, q.ColIdx[k], v)
			}
		}
	}
	return nil
}

// iterState is the shared workspace of the iterative solvers: the
// generator viewed as an Operator (both Gauss-Seidel stages consume Q^T
// through it) and a scratch vector reused across residual checks.
type iterState struct {
	op      Operator
	scratch []float64
}

func newIterState(op Operator) *iterState {
	return &iterState{op: op, scratch: make([]float64, op.Dim())}
}

// residual returns ||pi*Q||_inf, computed through the operator's
// transpose product into the reused scratch buffer.
func (s *iterState) residual(pi []float64) float64 {
	s.op.VecMulTo(s.scratch, pi)
	max := 0.0
	for _, x := range s.scratch {
		if a := math.Abs(x); a > max {
			max = a
		}
	}
	return max
}

// initialVector returns the starting distribution: a cleaned, normalized
// copy of opts.Initial when usable, the uniform distribution otherwise.
func initialVector(n int, opts Options) []float64 {
	pi := make([]float64, n)
	if len(opts.Initial) == n {
		copy(pi, opts.Initial)
		cleanNegatives(pi)
		sum := 0.0
		for _, v := range pi {
			sum += v
		}
		if sum > 0 {
			inv := 1 / sum
			for i := range pi {
				pi[i] *= inv
			}
			return pi
		}
	}
	for i := range pi {
		pi[i] = 1 / float64(n)
	}
	return pi
}

// SteadyState solves pi*Q = 0, pi*1 = 1 for the generator q; see
// SteadyStateOperatorCtx for the solver ladder.
func SteadyState(q *matrix.CSR, opts Options) (Result, error) {
	return SteadyStateCtx(context.Background(), q, opts)
}

// SteadyStateCtx is SteadyState with cooperative cancellation: the
// iterative solvers poll ctx once per sweep and return ctx.Err() when the
// context is done, so a canceled solve stops within one sweep. The dense
// direct path (small chains) runs to completion regardless — it is
// microseconds of work.
func SteadyStateCtx(ctx context.Context, q *matrix.CSR, opts Options) (Result, error) {
	return SteadyStateOperatorCtx(ctx, q, opts)
}

// SteadyStateOperator is SteadyStateOperatorCtx without cancellation.
func SteadyStateOperator(op Operator, opts Options) (Result, error) {
	return SteadyStateOperatorCtx(context.Background(), op, opts)
}

// Iterative-stage limits: the forward Gauss-Seidel stage runs at most
// gsMaxSweeps sweeps, checks the residual every residualEvery sweeps,
// and hands over to symmetric Gauss-Seidel once its best residual has
// not halved within plateauSweeps sweeps. The symmetric stage checks
// every residualEvery sweeps too (residualEvery/2 iterations).
const (
	gsMaxSweeps   = 1500
	residualEvery = 8
	plateauSweeps = 64
)

// SteadyStateOperatorCtx solves pi*Q = 0, pi*1 = 1 for a generator
// presented as an Operator — materialized or matrix-free. The ladder:
//
//   - Chains at or below DenseCutoff (512 states by default) are solved
//     directly by dense LU, the balance equations recovered through
//     ScanTranspose.
//   - Larger chains start with forward Gauss-Seidel sweeps over the
//     transposed balance equations. On birth-death-like chains they
//     converge within a few hundred sweeps.
//   - On MAP-modulated queueing networks the forward sweep oscillates
//     and its residual stalls orders of magnitude above tolerance. The
//     forward stage therefore exits on a plateau: when its best residual
//     has not halved within 64 sweeps (or after 1500 sweeps).
//   - Symmetric Gauss-Seidel takes over from the forward iterate: each
//     iteration is a forward sweep followed by a backward sweep
//     (ScanTransposeReverse), which damps the oscillation. It runs under
//     the same residual test, residual <= Tol*max|q_ii|, for up to
//     MaxIter iterations and otherwise returns ErrNoConvergence, which
//     model builders degrade on (exact -> decomp -> bounds).
//
// Krylov and extrapolation schemes were measured and rejected:
// SGS-preconditioned GMRES(10) solved the MAP networks faster but
// stalled at residuals of 1e-8 to 1e-4 on M/M/1/K birth-death chains,
// and Anderson mixing made those chains 2.4x slower.
func SteadyStateOperatorCtx(ctx context.Context, op Operator, opts Options) (Result, error) {
	opts = opts.withDefaults()
	st := newIterState(op)
	if op.Dim() <= opts.DenseCutoff {
		pi, err := steadyStateDense(op)
		if err != nil {
			return Result{}, err
		}
		return Result{Pi: pi, Iterations: 0, Residual: st.residual(pi), Method: "dense-lu"}, nil
	}
	scale := op.MaxAbsDiag()
	if scale == 0 {
		return Result{}, errors.New("ctmc: zero generator")
	}
	tol := opts.Tol * scale
	pi := initialVector(op.Dim(), opts)
	sweeps, r, err := st.gaussSeidel(ctx, pi, min(opts.MaxIter, gsMaxSweeps), tol)
	if err != nil {
		return Result{}, err
	}
	if r <= tol {
		return finish(pi, sweeps, r, "gauss-seidel"), nil
	}
	return st.symmetricGaussSeidel(ctx, pi, sweeps, opts.MaxIter, tol)
}

// steadyStateDense solves the balance equations directly.
func steadyStateDense(op Operator) ([]float64, error) {
	n := op.Dim()
	a := matrix.NewDense(n, n)
	// a = Q^T with the last equation replaced by normalization.
	op.ScanTranspose(func(row int, cols []int, vals []float64) {
		for k, c := range cols {
			a.Set(row, c, vals[k])
		}
	})
	for j := 0; j < n; j++ {
		a.Set(n-1, j, 1)
	}
	b := make([]float64, n)
	b[n-1] = 1
	pi, err := matrix.Solve(a, b)
	if err != nil {
		return nil, fmt.Errorf("ctmc: dense solve failed (reducible chain?): %w", err)
	}
	cleanNegatives(pi)
	normalize(pi)
	return pi, nil
}

// relax returns the Gauss-Seidel row update for one row of Q^T: it
// solves equation i of the transposed balance equations,
// pi_i = sum_{j != i} pi_j q_{ji} / (-q_{ii}), for pi_i with the latest
// values of the other entries, and raises *maxDelta to the size of the
// change. Row i of Q^T carries q_{ji} for all j, so one pass gives both
// the diagonal and the off-diagonal sum in stored order.
func relax(pi []float64, maxDelta *float64) func(i int, cols []int, vals []float64) {
	return func(i int, cols []int, vals []float64) {
		d, sum := 0.0, 0.0 // d = q_{ii} <= 0
		for k, j := range cols {
			if j == i {
				d = vals[k]
			} else {
				sum += vals[k] * pi[j]
			}
		}
		if d >= 0 {
			return // absorbing or isolated state: leave mass as is
		}
		next := sum / (-d)
		if delta := math.Abs(next - pi[i]); delta > *maxDelta {
			*maxDelta = delta
		}
		pi[i] = next
	}
}

// gaussSeidel runs forward sweeps on pi in place, renormalizing after
// each, until the residual reaches tol, the residual plateaus (its best
// value has not halved within plateauSweeps sweeps), or maxSweeps run
// out. It returns the sweeps run and the last residual checked; the
// caller tells convergence from a handover by comparing it with tol.
func (s *iterState) gaussSeidel(ctx context.Context, pi []float64, maxSweeps int, tol float64) (int, float64, error) {
	var maxDelta float64
	sweep := relax(pi, &maxDelta)
	r, best, bestAt := math.Inf(1), math.Inf(1), 0
	for it := 1; it <= maxSweeps; it++ {
		if err := ctx.Err(); err != nil {
			return 0, 0, err
		}
		maxDelta = 0
		s.op.ScanTranspose(sweep)
		normalize(pi)
		if it%residualEvery == 0 || maxDelta == 0 {
			r = s.residual(pi)
			if r <= tol {
				return it, r, nil
			}
			if r <= best/2 {
				best, bestAt = r, it
			} else if it-bestAt >= plateauSweeps {
				return it, r, nil
			}
		}
	}
	return maxSweeps, r, nil
}

// symmetricGaussSeidel continues from the forward stage's iterate with
// up to maxIter symmetric iterations — a forward sweep, then a backward
// one — renormalizing after each iteration. sweeps is the forward
// stage's count; the result reports the total (an iteration counts as
// two sweeps).
func (s *iterState) symmetricGaussSeidel(ctx context.Context, pi []float64, sweeps, maxIter int, tol float64) (Result, error) {
	var maxDelta float64 // unread: this stage checks the residual on a fixed cadence
	sweep := relax(pi, &maxDelta)
	r := math.Inf(1)
	for it := 1; it <= maxIter; it++ {
		if err := ctx.Err(); err != nil {
			return Result{}, err
		}
		s.op.ScanTranspose(sweep)
		s.op.ScanTransposeReverse(sweep)
		normalize(pi)
		if it%(residualEvery/2) == 0 || it == maxIter {
			if r = s.residual(pi); r <= tol {
				return finish(pi, sweeps+2*it, r, "symmetric-gauss-seidel"), nil
			}
		}
	}
	return Result{}, fmt.Errorf("%w: symmetric gauss-seidel residual %.3g after %d iterations (tol %.3g)",
		ErrNoConvergence, r, maxIter, tol)
}

// finish clamps round-off negatives in a converged iterate and wraps it.
func finish(pi []float64, sweeps int, r float64, method string) Result {
	cleanNegatives(pi)
	normalize(pi)
	return Result{Pi: pi, Iterations: sweeps, Residual: r, Method: method}
}

func normalize(pi []float64) {
	sum := 0.0
	for _, v := range pi {
		sum += v
	}
	if sum <= 0 {
		return
	}
	for i := range pi {
		pi[i] /= sum
	}
}

func cleanNegatives(pi []float64) {
	for i, v := range pi {
		if v < 0 {
			pi[i] = 0
		}
	}
}
