package matrix

import (
	"runtime"
	"sync"
)

// Sparse matrix-vector products dominate the CTMC solver's runtime, so
// both kernels run in parallel over contiguous row blocks when the
// matrix is large enough to amortize goroutine handoff. Worker count
// follows GOMAXPROCS; below parallelMinNNZ the sequential kernels run
// inline so small chains don't regress.
//
// Both parallel kernels are bit-identical to their sequential
// counterparts. MulVecTo partitions disjoint outputs, so each y[r] is
// the same left-to-right sum either way. VecMulTo cannot be partitioned
// that way (rows scatter into shared outputs), so its parallel path runs
// as a gather over the lazily cached transpose: row c of A^T holds
// exactly the terms A[r,c]*x[r] in increasing r — the order and
// association in which the sequential scatter accumulates y[c] — so the
// gather reproduces it bit for bit.

// parallelMinNNZ is the minimum number of stored entries before the
// SpMV kernels fan out. A goroutine handoff costs on the order of a
// microsecond — roughly 10^4 multiply-adds — so the bar is set well
// above that. It is a variable so tests can force either path.
var parallelMinNNZ = 1 << 15

// maxSpmvWorkers caps the fan-out.
const maxSpmvWorkers = 16

// SpMVWorkers returns how many workers a sparse product touching nnz
// entries should use; 1 means run sequentially. It is exported so
// matrix-free operators built outside this package (which synthesize
// rows instead of storing them) partition work exactly like the CSR
// kernels and stay bit-identical to them.
func SpMVWorkers(nnz int) int { return spmvWorkers(nnz) }

// ForRowBlocks splits the rows [0, n) into workers nearly equal
// contiguous blocks and runs fn(w, lo, hi) on block w, returning once
// every block is done. Block 0 runs on the calling goroutine and each
// other block on its own, so one worker runs fn inline. It is the
// fan-out of the CSR kernels, exported so operators built outside this
// package (which synthesize rows instead of storing them) partition
// work the same way.
func ForRowBlocks(n, workers int, fn func(w, lo, hi int)) {
	bounds := rowBlocks(n, workers)
	var wg sync.WaitGroup
	wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			fn(w, bounds[w], bounds[w+1])
		}(w)
	}
	fn(0, bounds[0], bounds[1])
	wg.Wait()
}

// spmvWorkers returns how many workers an operation on nnz stored
// entries should use; 1 means run sequentially.
func spmvWorkers(nnz int) int {
	if nnz < parallelMinNNZ {
		return 1
	}
	w := runtime.GOMAXPROCS(0)
	if w > maxSpmvWorkers {
		w = maxSpmvWorkers
	}
	if blocks := nnz / parallelMinNNZ; w > blocks {
		w = blocks // keep at least parallelMinNNZ entries per worker
	}
	if w < 1 {
		w = 1
	}
	return w
}

// rowBlocks splits the rows [0, n) into nearly equal contiguous blocks,
// returning the block boundaries (len workers+1).
func rowBlocks(n, workers int) []int {
	bounds := make([]int, workers+1)
	for i := 0; i <= workers; i++ {
		bounds[i] = i * n / workers
	}
	return bounds
}

// mulVecBlocks runs the gather kernel y[r] = sum_k A[r,k]*x[k] with one
// goroutine per row block. Outputs are disjoint, so no reduction is
// needed and the result is identical to the sequential kernel.
func (m *CSR) mulVecBlocks(y, x []float64, workers int) {
	ForRowBlocks(m.N, workers, func(_, lo, hi int) { m.mulVecRange(y, x, lo, hi) })
}

// cachedTranspose returns A^T, building it on first use. The CSR
// representation is immutable after construction, so the transpose is
// computed at most once and shared by concurrent callers.
func (m *CSR) cachedTranspose() *CSR {
	m.transposeOnce.Do(func() {
		m.transposed = m.Transpose()
	})
	return m.transposed
}
