// Package ctmc computes stationary distributions of continuous-time
// Markov chains. Small chains (up to 512 states by default) are solved
// directly by dense LU. Larger sparse chains — such as the MAP queueing
// network underlying the paper's capacity-planning model — are solved
// iteratively by symmetric (forward-then-backward) Gauss-Seidel. A model
// that knows its chain's level structure passes partitions into levels
// (Levels), and each iteration then starts with a coarse step over one
// of them: the chain lumped onto the partition's blocks is solved
// exactly by level reduction, and pi rescaled block by block to the
// result. On MAP-modulated networks that takes out the slow modes the
// sweeps alone barely damp.
//
// The solvers read only Q^T, stored once as a RowBlock: int32 source
// indices and values per row, with each row's diagonal q_ii held apart
// in its own array. The Gauss-Seidel loops accumulate each row's terms
// in stored order, so a given generator yields the same iterates bit for
// bit however its RowBlock was built (CompactTranspose from a CSR Q, or
// a model builder streaming rows of Q^T directly, as mapqn does).
package ctmc

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"

	"repro/internal/matrix"
)

// Options tunes the iterative solver. The zero value uses defaults.
type Options struct {
	// Tol is the convergence threshold on the residual ||pi*Q||_inf
	// relative to the largest transition rate (default 1e-10).
	Tol float64 `json:"tol,omitempty"`
	// MaxIter bounds the symmetric Gauss-Seidel iterations (default
	// 100000).
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
	// MaxStates caps how many states a model builder may enumerate before
	// erroring out cleanly instead of exhausting memory. Zero means the
	// builder's default, 2,000,000 states for mapqn.
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
		o.DenseCutoff = defaultDenseCutoff
	}
	return o
}

// defaultDenseCutoff is Options.DenseCutoff's default.
const defaultDenseCutoff = 512

// ErrNoConvergence is returned when symmetric Gauss-Seidel exhausts MaxIter without reaching the requested residual.
var ErrNoConvergence = errors.New("ctmc: steady-state iteration did not converge")

// Result carries the stationary vector and solver diagnostics.
type Result struct {
	Pi []float64
	// Iterations counts the sweeps (a symmetric Gauss-Seidel iteration is
	// two; coarse steps are not counted); zero for the dense solve.
	Iterations int
	Residual   float64
	// Method is "dense-lu", "symmetric-gauss-seidel" or, when a coarse
	// step ran, "aggregated-symmetric-gauss-seidel".
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
// SteadyStateTransposeCtx for the solver ladder. q is converted once
// into the stored compact Q^T (CompactTranspose).
func SteadyState(q *matrix.CSR, opts Options) (Result, error) {
	return SteadyStateCtx(context.Background(), q, opts)
}

// SteadyStateCtx is SteadyState with cooperative cancellation: the
// iterative solvers poll ctx once per sweep and return ctx.Err() when the
// context is done, so a canceled solve stops within one sweep. The dense
// direct path (small chains) runs to completion regardless — it is
// microseconds of work.
func SteadyStateCtx(ctx context.Context, q *matrix.CSR, opts Options) (Result, error) {
	qt, err := CompactTranspose(q)
	if err != nil {
		return Result{}, err
	}
	return SteadyStateTransposeCtx(ctx, qt, opts, nil)
}

// checkEvery is the cadence, in symmetric Gauss-Seidel iterations, of
// the residual check, and stallIters the iterations within which the
// residual must halve for the coarse step to stay on.
const (
	checkEvery = 4
	stallIters = 32
)

// SteadyStateTransposeCtx solves pi*Q = 0, pi*1 = 1 for a generator
// given as its stored transpose qt. The ladder:
//
//   - Chains at or below DenseCutoff (512 states by default) are solved
//     directly by dense LU, the balance equations copied from qt into
//     a reused workspace (see denseWorks). The system is factored in
//     place, and each elimination step updates a row only over the
//     span of the pivot row's nonzeros (matrix.LU.Refactor): on a
//     banded network chain that is about a tenth of the dense
//     arithmetic, with the same factors bit for bit.
//   - Larger chains run symmetric Gauss-Seidel from the first sweep:
//     each iteration is a forward sweep followed by a backward sweep
//     over the transposed balance equations. It runs under the residual
//     test residual <= Tol*max|q_ii|, checked every fourth iteration,
//     for up to MaxIter iterations and otherwise returns
//     ErrNoConvergence, which model builders degrade on (exact ->
//     decomp -> bounds).
//   - When the model passes a Lumping, partitions into levels, each
//     iteration starts with a coarse step over one of them, in turn: pi
//     is lumped onto the partition's blocks, the small block tridiagonal
//     chain is solved exactly by level reduction, and each block of pi
//     is rescaled to its exact lumped mass (Koury-McAllister-Stewart
//     aggregation). On a MAP queueing network, with one partition per
//     station into (queue length, phase vector) blocks, this removes the
//     slow modes of phase switching and of population drift that the
//     sweeps barely damp, and cuts the sweeps about eightfold. A step
//     that cannot be taken (a block without mass, as after a warm start
//     from a smaller population, or a singular level) is skipped, and a
//     stalled residual turns the coarse step off (see
//     symmetricGaussSeidel). The method is then
//     "aggregated-symmetric-gauss-seidel" if any coarse step ran.
//
// Krylov and extrapolation schemes were measured and rejected:
// SGS-preconditioned GMRES(10) solved the MAP networks faster but
// stalled at residuals of 1e-8 to 1e-4 on M/M/1/K birth-death chains,
// and Anderson mixing made those chains 2.4x slower.
func SteadyStateTransposeCtx(ctx context.Context, qt *RowBlock, opts Options, lump Lumping) (Result, error) {
	opts = opts.withDefaults()
	if qt.Dim() <= opts.DenseCutoff {
		pi, err := steadyStateDense(qt)
		if err != nil {
			return Result{}, err
		}
		return Result{Pi: pi, Iterations: 0, Residual: qt.residual(pi), Method: "dense-lu"}, nil
	}
	scale := qt.MaxAbsDiag()
	if scale == 0 {
		return Result{}, errors.New("ctmc: zero generator")
	}
	agg, err := newCoarse(lump, qt.Dim())
	if err != nil {
		return Result{}, err
	}
	return symmetricGaussSeidel(ctx, qt, initialVector(qt.Dim(), opts), agg, opts.MaxIter, opts.Tol*scale)
}

// denseWork is steadyStateDense's reusable workspace: the factorization
// it assembles its system in and the right-hand side e_n.
type denseWork struct {
	lu  *matrix.LU
	rhs []float64
}

// denseWorks is the free list of idle dense workspaces. A solve takes
// one, or makes one when none is idle, and returns it, so the list holds
// at most as many as solves ever ran at once. Unlike a sync.Pool it
// keeps them across garbage collections, which would otherwise make the
// next solve allocate and zero a fresh n×n system; a workspace that
// solved a chain beyond the default cutoff is not kept, so each one
// kept holds at most 512² entries (2 MB).
var denseWorks struct {
	sync.Mutex
	idle []*denseWork
}

func getDenseWork() *denseWork {
	denseWorks.Lock()
	defer denseWorks.Unlock()
	if k := len(denseWorks.idle); k > 0 {
		w := denseWorks.idle[k-1]
		denseWorks.idle = denseWorks.idle[:k-1]
		return w
	}
	return &denseWork{lu: new(matrix.LU)}
}

// putDenseWork returns w, which just solved an order-n chain.
func putDenseWork(w *denseWork, n int) {
	if n > defaultDenseCutoff {
		return
	}
	denseWorks.Lock()
	denseWorks.idle = append(denseWorks.idle, w)
	denseWorks.Unlock()
}

// steadyStateDense solves the balance equations directly, factoring the
// system it builds in place in a reused workspace (see denseWorks):
// beyond a workspace's growth it allocates only the returned vector.
func steadyStateDense(qt *RowBlock) ([]float64, error) {
	n := qt.Dim()
	w := getDenseWork()
	defer putDenseWork(w, n)
	// a = Q^T with the last equation replaced by normalization.
	a := w.lu.Reset(n)
	for i, d := range qt.Diag {
		a.Set(i, i, d)
		for k := qt.Ptr[i]; k < qt.Ptr[i+1]; k++ {
			a.Set(i, int(qt.Cols[k]), qt.Vals[k])
		}
	}
	for j := 0; j < n; j++ {
		a.Set(n-1, j, 1)
	}
	if cap(w.rhs) < n {
		w.rhs = make([]float64, n)
	}
	w.rhs = w.rhs[:n]
	clear(w.rhs)
	w.rhs[n-1] = 1
	pi := make([]float64, n)
	err := w.lu.Refactor(a)
	if err == nil {
		err = w.lu.SolveTo(pi, w.rhs)
	}
	if err != nil {
		return nil, fmt.Errorf("ctmc: dense solve failed (reducible chain?): %w", err)
	}
	cleanNegatives(pi)
	normalize(pi)
	return pi, nil
}

// The Gauss-Seidel row update solves equation i of the transposed
// balance equations, pi_i = sum_{j != i} pi_j q_{ji} / (-q_{ii}), for
// pi_i with the latest values of the other entries, summing the row's
// off-diagonal terms in stored (ascending source) order. Rows whose
// diagonal is not negative — absorbing or isolated states — keep their
// mass as is. The two sweeps below share that update and differ only
// in direction.

// rowSum returns sum_k Vals[k]*pi[Cols[k]] over the off-diagonal
// entries of row i, in stored order.
func (b *RowBlock) rowSum(i int, pi []float64) float64 {
	lo, hi := b.Ptr[i], b.Ptr[i+1]
	cols := b.Cols[lo:hi]
	vals := b.Vals[lo:hi]
	vals = vals[:len(cols)]
	sum := 0.0
	for k, c := range cols {
		sum += vals[k] * pi[c]
	}
	return sum
}

// sweepForward relaxes the rows in ascending order.
func (b *RowBlock) sweepForward(pi []float64) {
	for i, d := range b.Diag {
		if d >= 0 {
			continue
		}
		pi[i] = b.rowSum(i, pi) / (-d)
	}
}

// sweepBackward relaxes the rows in descending order.
func (b *RowBlock) sweepBackward(pi []float64) {
	for i := len(b.Diag) - 1; i >= 0; i-- {
		d := b.Diag[i]
		if d >= 0 {
			continue
		}
		pi[i] = b.rowSum(i, pi) / (-d)
	}
}

// symmetricGaussSeidel runs up to maxIter symmetric iterations of qt on
// pi in place, each a coarse step over the next partition of agg (none when
// agg is nil) and then a forward and a backward sweep. The coarse step
// normalizes pi; the residual check normalizes it too. The result
// counts the sweeps, two per iteration.
//
// The coarse steps of different partitions can also pull against each
// other: on a chain whose mass splits between two modes, they were seen
// to hold the residual still forever. So once the residual has not
// halved within stallIters iterations, the remaining iterations run
// without the coarse step; plain sweeps converge from any start.
func symmetricGaussSeidel(ctx context.Context, qt *RowBlock, pi []float64, agg *coarse, maxIter int, tol float64) (Result, error) {
	r, best, bestAt := math.Inf(1), math.Inf(1), 0
	method := "symmetric-gauss-seidel"
	coarseOn := agg != nil
	for it := 1; it <= maxIter; it++ {
		if err := ctx.Err(); err != nil {
			return Result{}, err
		}
		if coarseOn && agg.step(pi, it) {
			method = "aggregated-symmetric-gauss-seidel"
		}
		qt.sweepForward(pi)
		qt.sweepBackward(pi)
		if it%checkEvery == 0 || it == maxIter {
			normalize(pi)
			if r = qt.residual(pi); r <= tol {
				return finish(pi, 2*it, r, method), nil
			}
			if r <= best/2 {
				best, bestAt = r, it
			} else if it-bestAt >= stallIters {
				coarseOn = false
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
