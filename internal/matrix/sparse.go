package matrix

import (
	"fmt"
	"sort"
	"sync"
)

// Triplet is one (row, col, value) entry used to assemble sparse matrices.
type Triplet struct {
	Row, Col int
	Val      float64
}

// CSR is a compressed-sparse-row matrix. Construct with NewCSR; the
// representation is immutable afterwards.
type CSR struct {
	N        int // square dimension
	RowPtr   []int
	ColIdx   []int
	Vals     []float64
	diagIdx  []int // index into Vals of the diagonal entry per row, -1 if absent
	hasDiags bool

	// transposed caches A^T for the parallel VecMulTo path; valid because
	// the representation is immutable after construction.
	transposeOnce sync.Once
	transposed    *CSR
}

// NewCSR assembles an n-by-n CSR matrix from triplets. Duplicate
// (row, col) entries are summed. Triplets outside [0,n) panic: the state
// space enumeration owns index validity.
func NewCSR(n int, entries []Triplet) *CSR {
	if n < 1 {
		panic(fmt.Sprintf("matrix: CSR dimension %d must be >= 1", n))
	}
	// Sort by (row, col) then merge duplicates.
	sorted := make([]Triplet, len(entries))
	copy(sorted, entries)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].Row != sorted[j].Row {
			return sorted[i].Row < sorted[j].Row
		}
		return sorted[i].Col < sorted[j].Col
	})
	rowPtr := make([]int, n+1)
	colIdx := make([]int, 0, len(sorted))
	vals := make([]float64, 0, len(sorted))
	for i := 0; i < len(sorted); {
		t := sorted[i]
		if t.Row < 0 || t.Row >= n || t.Col < 0 || t.Col >= n {
			panic(fmt.Sprintf("matrix: CSR entry (%d,%d) out of range n=%d", t.Row, t.Col, n))
		}
		sum := t.Val
		j := i + 1
		for j < len(sorted) && sorted[j].Row == t.Row && sorted[j].Col == t.Col {
			sum += sorted[j].Val
			j++
		}
		colIdx = append(colIdx, t.Col)
		vals = append(vals, sum)
		rowPtr[t.Row+1]++
		i = j
	}
	for r := 0; r < n; r++ {
		rowPtr[r+1] += rowPtr[r]
	}
	m := &CSR{N: n, RowPtr: rowPtr, ColIdx: colIdx, Vals: vals}
	m.indexDiagonal()
	return m
}

func (m *CSR) indexDiagonal() {
	m.diagIdx = make([]int, m.N)
	m.hasDiags = true
	for r := 0; r < m.N; r++ {
		m.diagIdx[r] = -1
		for k := m.RowPtr[r]; k < m.RowPtr[r+1]; k++ {
			if m.ColIdx[k] == r {
				m.diagIdx[r] = k
				break
			}
		}
		if m.diagIdx[r] == -1 {
			m.hasDiags = false
		}
	}
}

// NewCSRFromRows wraps already-assembled CSR arrays without copying or
// sorting: rowPtr must be monotone with rowPtr[0] == 0 and
// rowPtr[n] == len(colIdx) == len(vals), and each row's columns must be
// unique and in [0, n). It is the fast path for builders that emit
// entries in row order (e.g. the CTMC generator assembly); NewCSR remains
// the convenient triplet-based constructor for tests and small callers.
func NewCSRFromRows(n int, rowPtr, colIdx []int, vals []float64) *CSR {
	if n < 1 {
		panic(fmt.Sprintf("matrix: CSR dimension %d must be >= 1", n))
	}
	if len(rowPtr) != n+1 || rowPtr[0] != 0 || rowPtr[n] != len(colIdx) || len(colIdx) != len(vals) {
		panic(fmt.Sprintf("matrix: inconsistent CSR arrays: n=%d len(rowPtr)=%d rowPtr[n]=%d len(colIdx)=%d len(vals)=%d",
			n, len(rowPtr), rowPtr[n], len(colIdx), len(vals)))
	}
	for r := 0; r < n; r++ {
		if rowPtr[r] > rowPtr[r+1] {
			panic(fmt.Sprintf("matrix: rowPtr not monotone at row %d", r))
		}
	}
	m := &CSR{N: n, RowPtr: rowPtr, ColIdx: colIdx, Vals: vals}
	m.indexDiagonal()
	return m
}

// NNZ returns the number of stored entries.
func (m *CSR) NNZ() int { return len(m.Vals) }

// Dim returns the square dimension.
func (m *CSR) Dim() int { return m.N }

// ScanTranspose invokes fn once per row of A^T in row order, handing it
// the row's column indices (ascending) and values as slices valid only
// for the duration of the call. Gauss-Seidel sweeps over the transposed
// balance equations through this without materializing A^T per caller;
// the CSR implementation serves slices of the cached transpose.
func (m *CSR) ScanTranspose(fn func(row int, cols []int, vals []float64)) {
	m.cachedTranspose().ScanRows(fn)
}

// ScanTransposeReverse is ScanTranspose in descending row order.
func (m *CSR) ScanTransposeReverse(fn func(row int, cols []int, vals []float64)) {
	m.cachedTranspose().ScanRowsReverse(fn)
}

// ScanRows invokes fn once per row of A in ascending row order with
// slices of the row's stored columns and values, valid only for the
// duration of the call.
func (m *CSR) ScanRows(fn func(row int, cols []int, vals []float64)) {
	for r := 0; r < m.N; r++ {
		lo, hi := m.RowPtr[r], m.RowPtr[r+1]
		fn(r, m.ColIdx[lo:hi], m.Vals[lo:hi])
	}
}

// ScanRowsReverse is ScanRows in descending row order.
func (m *CSR) ScanRowsReverse(fn func(row int, cols []int, vals []float64)) {
	for r := m.N - 1; r >= 0; r-- {
		lo, hi := m.RowPtr[r], m.RowPtr[r+1]
		fn(r, m.ColIdx[lo:hi], m.Vals[lo:hi])
	}
}

// At returns entry (i, j); absent entries are zero.
func (m *CSR) At(i, j int) float64 {
	for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
		if m.ColIdx[k] == j {
			return m.Vals[k]
		}
	}
	return 0
}

// Diag returns the diagonal entry of row i (zero if absent).
func (m *CSR) Diag(i int) float64 {
	if m.diagIdx[i] >= 0 {
		return m.Vals[m.diagIdx[i]]
	}
	return 0
}

// MulVec computes y = A*x.
func (m *CSR) MulVec(x []float64) []float64 {
	y := make([]float64, m.N)
	m.MulVecTo(y, x)
	return y
}

// MulVecTo computes y = A*x into the provided slice. Large matrices are
// processed in parallel row blocks (see parallel.go); each y[r] is the
// same left-to-right sum either way, so the result is bit-identical to
// the sequential kernel.
func (m *CSR) MulVecTo(y, x []float64) {
	if len(x) != m.N || len(y) != m.N {
		panic(fmt.Sprintf("matrix: MulVec length %d/%d, want %d", len(x), len(y), m.N))
	}
	if workers := spmvWorkers(m.NNZ()); workers > 1 {
		m.mulVecBlocks(y, x, workers)
		return
	}
	m.mulVecRange(y, x, 0, m.N)
}

// mulVecRange is the sequential gather kernel over rows [lo, hi).
func (m *CSR) mulVecRange(y, x []float64, lo, hi int) {
	for r := lo; r < hi; r++ {
		sum := 0.0
		for k := m.RowPtr[r]; k < m.RowPtr[r+1]; k++ {
			sum += m.Vals[k] * x[m.ColIdx[k]]
		}
		y[r] = sum
	}
}

// VecMulTo computes y = x*A (x as a row vector) into the provided slice.
// This is the operation used by probability-vector iteration. Large
// matrices run the product as a parallel gather over the cached
// transpose: row j of A^T lists the terms A[r,j]*x[r] in increasing r,
// exactly the order and association in which the sequential scatter
// accumulates y[j], so the parallel path is bit-identical to the
// sequential kernel.
func (m *CSR) VecMulTo(y, x []float64) {
	if len(x) != m.N || len(y) != m.N {
		panic(fmt.Sprintf("matrix: VecMul length %d/%d, want %d", len(x), len(y), m.N))
	}
	if workers := spmvWorkers(m.NNZ()); workers > 1 {
		m.cachedTranspose().mulVecBlocks(y, x, workers)
		return
	}
	for i := range y {
		y[i] = 0
	}
	m.vecMulRange(y, x, 0, m.N)
}

// vecMulRange accumulates the scatter kernel of rows [lo, hi) into y,
// which the caller must have zeroed.
func (m *CSR) vecMulRange(y, x []float64, lo, hi int) {
	for r := lo; r < hi; r++ {
		xr := x[r]
		if xr == 0 {
			continue
		}
		for k := m.RowPtr[r]; k < m.RowPtr[r+1]; k++ {
			y[m.ColIdx[k]] += xr * m.Vals[k]
		}
	}
}

// Transpose returns A^T as a new CSR matrix using a counting sort over
// the target rows: O(nnz) with no comparison sort. Column indices within
// each output row come out in increasing order because input rows are
// scanned in order.
func (m *CSR) Transpose() *CSR {
	nnz := m.NNZ()
	rowPtr := make([]int, m.N+1)
	for _, c := range m.ColIdx {
		rowPtr[c+1]++
	}
	for r := 0; r < m.N; r++ {
		rowPtr[r+1] += rowPtr[r]
	}
	colIdx := make([]int, nnz)
	vals := make([]float64, nnz)
	next := make([]int, m.N)
	copy(next, rowPtr[:m.N])
	for r := 0; r < m.N; r++ {
		for k := m.RowPtr[r]; k < m.RowPtr[r+1]; k++ {
			c := m.ColIdx[k]
			p := next[c]
			next[c]++
			colIdx[p] = r
			vals[p] = m.Vals[k]
		}
	}
	t := &CSR{N: m.N, RowPtr: rowPtr, ColIdx: colIdx, Vals: vals}
	t.indexDiagonal()
	return t
}

// RowSums returns the vector of row sums (for generator sanity checks).
func (m *CSR) RowSums() []float64 {
	out := make([]float64, m.N)
	for r := 0; r < m.N; r++ {
		sum := 0.0
		for k := m.RowPtr[r]; k < m.RowPtr[r+1]; k++ {
			sum += m.Vals[k]
		}
		out[r] = sum
	}
	return out
}

// MaxAbsDiag returns the largest absolute diagonal entry, used to pick
// the uniformization constant of a CTMC generator.
func (m *CSR) MaxAbsDiag() float64 {
	max := 0.0
	for r := 0; r < m.N; r++ {
		d := m.Diag(r)
		if d < 0 {
			d = -d
		}
		if d > max {
			max = d
		}
	}
	return max
}
