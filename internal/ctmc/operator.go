package ctmc

// Operator is the minimal view of a CTMC generator the solvers need;
// every method reads Q^T only. A materialized *matrix.CSR satisfies it
// directly (through its cached transpose); a builder can also store Q^T
// alone, or implement it matrix-free (e.g. mapqn's row-synthesizing
// backend) without storing any nonzeros, lifting the state-space
// ceiling from what fits in CSR arrays to what fits in a handful of
// state-sized vectors.
type Operator interface {
	// Dim returns the square dimension (number of states).
	Dim() int
	// VecMulTo computes y = x*Q (equivalently Q^T*x) — the product the
	// residual checks consume.
	VecMulTo(y, x []float64)
	// MaxAbsDiag returns max_i |q_ii|, the scale of the residual test.
	MaxAbsDiag() float64
	// ScanTranspose invokes fn once per row of Q^T in ascending row order
	// with the row's column indices (ascending) and values; the slices
	// are valid only for the duration of the call. Gauss-Seidel sweeps
	// the transposed balance equations through this.
	ScanTranspose(fn func(row int, cols []int, vals []float64))
	// ScanTransposeReverse is ScanTranspose in descending row order, with
	// the same rows entry for entry: the backward sweep of symmetric
	// Gauss-Seidel.
	ScanTransposeReverse(fn func(row int, cols []int, vals []float64))
}

// Backend names a generator representation for model builders that
// construct the chain (such as mapqn). It rides along in Options so the
// choice reaches the builder through existing plumbing — scenario JSON,
// suite memo keys, and warm-started sweeps included.
type Backend string

const (
	// BackendAuto lets the builder choose: materialized CSR below its
	// state-count threshold, matrix-free above it.
	BackendAuto Backend = ""
	// BackendCSR forces the materialized compressed-sparse-row generator.
	BackendCSR Backend = "csr"
	// BackendMatrixFree forces on-the-fly row synthesis: O(states) memory
	// for solver vectors instead of O(nnz) for stored entries.
	BackendMatrixFree Backend = "matrix-free"
)
