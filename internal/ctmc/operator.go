package ctmc

import (
	"fmt"
	"math"

	"repro/internal/matrix"
)

// Operator is the minimal view of a CTMC generator the solvers need;
// every method reads Q^T only. A builder can store Q^T once as a
// RowBlock spanning every row (which is itself an Operator), or
// implement it matrix-free (e.g. mapqn's row-synthesizing backend)
// without storing any nonzeros, lifting the state-space ceiling from
// what fits in stored arrays to what fits in a handful of state-sized
// vectors. Both hand the Gauss-Seidel kernels the same RowBlock form,
// so one sweep loop serves every backend.
type Operator interface {
	// Dim returns the square dimension (number of states).
	Dim() int
	// VecMulTo computes y = x*Q (equivalently Q^T*x) — the product the
	// residual checks consume.
	VecMulTo(y, x []float64)
	// MaxAbsDiag returns max_i |q_ii|, the scale of the residual test.
	MaxAbsDiag() float64
	// ScanBlocks invokes fn with consecutive row blocks of Q^T that
	// together cover rows [0, Dim()) in ascending block order. The block
	// is valid only for the duration of the call. Gauss-Seidel sweeps
	// the transposed balance equations through this.
	ScanBlocks(fn func(b *RowBlock))
	// ScanBlocksReverse is ScanBlocks in descending block order, with the
	// same rows entry for entry: the backward sweep of symmetric
	// Gauss-Seidel, which walks each block's rows in descending order.
	ScanBlocksReverse(fn func(b *RowBlock))
}

// RowBlock holds rows [Lo, Hi) of Q^T with each row's diagonal split
// out. For row i = Lo+r, Diag[r] is q_ii and the off-diagonal entries
// q_ji, sources j ascending, are Cols[Ptr[r]:Ptr[r+1]] and
// Vals[Ptr[r]:Ptr[r+1]]. Storing int32 indices and no diagonal in the
// entry arrays costs 12 bytes per off-diagonal instead of 16 per entry,
// and leaves the sweep loop without a diagonal branch.
//
// A RowBlock spanning every row (Lo == 0) is the stored backend: it
// satisfies Operator directly.
type RowBlock struct {
	Lo, Hi int
	Diag   []float64
	Ptr    []int32
	Cols   []int32
	Vals   []float64
}

// CompactTranspose stores q's transpose as one RowBlock over all rows,
// splitting the diagonal out of the entries. It errors when the
// dimension or the off-diagonal count does not fit the int32 indices.
func CompactTranspose(q *matrix.CSR) (*RowBlock, error) {
	qt := q.Transpose()
	if err := CheckCompactSize(qt.N, qt.NNZ()); err != nil {
		return nil, err
	}
	b := &RowBlock{
		Hi:   qt.N,
		Diag: make([]float64, qt.N),
		Ptr:  make([]int32, 1, qt.N+1),
		Cols: make([]int32, 0, qt.NNZ()),
		Vals: make([]float64, 0, qt.NNZ()),
	}
	for i := 0; i < qt.N; i++ {
		for k := qt.RowPtr[i]; k < qt.RowPtr[i+1]; k++ {
			if c := qt.ColIdx[k]; c == i {
				b.Diag[i] = qt.Vals[k]
			} else {
				b.Cols = append(b.Cols, int32(c))
				b.Vals = append(b.Vals, qt.Vals[k])
			}
		}
		b.Ptr = append(b.Ptr, int32(len(b.Cols)))
	}
	return b, nil
}

// CheckCompactSize reports whether a RowBlock of n rows and off
// off-diagonal entries fits its int32 indices.
func CheckCompactSize(n, off int) error {
	if n > math.MaxInt32 || off > math.MaxInt32 {
		return fmt.Errorf("ctmc: %d states with %d off-diagonal entries overflow the int32 indices of the stored Q^T", n, off)
	}
	return nil
}

// Dim returns the number of rows; it is the chain's dimension when the
// block spans every row.
func (b *RowBlock) Dim() int { return b.Hi - b.Lo }

// MaxAbsDiag returns max_i |q_ii| over the block's rows.
func (b *RowBlock) MaxAbsDiag() float64 {
	max := 0.0
	for _, d := range b.Diag {
		if d < 0 {
			d = -d
		}
		if d > max {
			max = d
		}
	}
	return max
}

// ScanBlocks hands fn the block itself.
func (b *RowBlock) ScanBlocks(fn func(*RowBlock)) { fn(b) }

// ScanBlocksReverse hands fn the block itself.
func (b *RowBlock) ScanBlocksReverse(fn func(*RowBlock)) { fn(b) }

// VecMulTo computes y = x*Q, the gather Q^T*x, over a block spanning
// every row. Large blocks run in parallel over contiguous row ranges;
// each y[i] is the same left-to-right sum either way.
func (b *RowBlock) VecMulTo(y, x []float64) {
	n := b.Dim()
	if len(x) != n || len(y) != n {
		panic(fmt.Sprintf("ctmc: VecMul length %d/%d, want %d", len(x), len(y), n))
	}
	workers := matrix.SpMVWorkers(len(b.Vals) + len(b.Diag))
	if workers == 1 {
		b.MulRows(y, x, b.Lo, b.Hi) // inline, without a closure to allocate
		return
	}
	matrix.ForRowBlocks(n, workers, func(_, lo, hi int) { b.MulRows(y, x, lo, hi) })
}

// MulRows sets y[i] = sum_j q_ji x[j] for the block's rows i in
// [lo, hi). The diagonal term enters at row i's sorted position, before
// the first source above i, so each sum runs over the row's entries in
// ascending column order — the order of the full, unsplit row.
func (b *RowBlock) MulRows(y, x []float64, lo, hi int) {
	for i := lo; i < hi; i++ {
		r := i - b.Lo
		k, end := b.Ptr[r], b.Ptr[r+1]
		sum := 0.0
		for ; k < end && int(b.Cols[k]) < i; k++ {
			sum += b.Vals[k] * x[b.Cols[k]]
		}
		sum += b.Diag[r] * x[i]
		for ; k < end; k++ {
			sum += b.Vals[k] * x[b.Cols[k]]
		}
		y[i] = sum
	}
}

// Backend names a generator representation for model builders that
// construct the chain (such as mapqn). It rides along in Options so the
// choice reaches the builder through existing plumbing — scenario JSON,
// suite memo keys, and warm-started sweeps included.
type Backend string

const (
	// BackendAuto lets the builder choose: stored Q^T below its
	// state-count threshold, matrix-free above it.
	BackendAuto Backend = ""
	// BackendCSR forces the stored compressed-row Q^T.
	BackendCSR Backend = "csr"
	// BackendMatrixFree forces on-the-fly row synthesis: O(states) memory
	// for solver vectors instead of O(nnz) for stored entries.
	BackendMatrixFree Backend = "matrix-free"
)
