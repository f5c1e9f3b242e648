package ctmc

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/matrix"
)

// RowBlock is a generator stored as its transpose Q^T, the only form
// the solvers read, with each row's diagonal split out. For row i,
// Diag[i] is q_ii and the off-diagonal entries q_ji, sources j
// ascending, are Cols[Ptr[i]:Ptr[i+1]] and Vals[Ptr[i]:Ptr[i+1]].
// Storing int32 indices and no diagonal in the entry arrays costs 12
// bytes per off-diagonal instead of 16 per entry, and leaves the sweep
// loop without a diagonal branch.
type RowBlock struct {
	Diag []float64
	Ptr  []int32
	Cols []int32
	Vals []float64
}

// CompactTranspose stores q's transpose as a RowBlock, splitting the
// diagonal out of the entries. It errors when the dimension or the
// off-diagonal count does not fit the int32 indices.
func CompactTranspose(q *matrix.CSR) (*RowBlock, error) {
	qt := q.Transpose()
	if err := CheckCompactSize(qt.N, qt.NNZ()); err != nil {
		return nil, err
	}
	b := &RowBlock{
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

// Dim returns the chain's dimension.
func (b *RowBlock) Dim() int { return len(b.Diag) }

// MaxAbsDiag returns max_i |q_ii|.
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

// VecMulTo computes y = x*Q, the gather Q^T*x. Large blocks run in
// parallel over contiguous row ranges; each y[i] is the same
// left-to-right sum either way.
func (b *RowBlock) VecMulTo(y, x []float64) {
	n := b.Dim()
	if len(x) != n || len(y) != n {
		panic(fmt.Sprintf("ctmc: VecMul length %d/%d, want %d", len(x), len(y), n))
	}
	workers := matrix.SpMVWorkers(len(b.Vals) + len(b.Diag))
	if workers == 1 {
		b.mulRows(y, x, 0, n) // inline, without a closure to allocate
		return
	}
	matrix.ForRowBlocks(n, workers, func(_, lo, hi int) { b.mulRows(y, x, lo, hi) })
}

// mulRows sets y[i] = rowProduct(i, x) for the rows i in [lo, hi).
func (b *RowBlock) mulRows(y, x []float64, lo, hi int) {
	for i := lo; i < hi; i++ {
		y[i] = b.rowProduct(i, x)
	}
}

// rowProduct returns (x*Q)_i = sum_j q_ji x[j]. The diagonal term enters
// at row i's sorted position, before the first source above i, so the
// sum runs over the row's entries in ascending column order — the order
// of the full, unsplit row.
func (b *RowBlock) rowProduct(i int, x []float64) float64 {
	k, end := b.Ptr[i], b.Ptr[i+1]
	sum := 0.0
	for ; k < end && int(b.Cols[k]) < i; k++ {
		sum += b.Vals[k] * x[b.Cols[k]]
	}
	sum += b.Diag[i] * x[i]
	for ; k < end; k++ {
		sum += b.Vals[k] * x[b.Cols[k]]
	}
	return sum
}

// residual returns ||x*Q||_inf, each entry of x*Q the sum VecMulTo
// stores, without storing the product. Large blocks run in parallel
// over contiguous row ranges.
func (b *RowBlock) residual(x []float64) float64 {
	n := b.Dim()
	maxAbs := func(lo, hi int) float64 {
		m := 0.0
		for i := lo; i < hi; i++ {
			if a := math.Abs(b.rowProduct(i, x)); a > m {
				m = a
			}
		}
		return m
	}
	workers := matrix.SpMVWorkers(len(b.Vals) + len(b.Diag))
	if workers == 1 {
		return maxAbs(0, n)
	}
	part := make([]float64, workers)
	matrix.ForRowBlocks(n, workers, func(w, lo, hi int) { part[w] = maxAbs(lo, hi) })
	return slices.Max(part)
}
