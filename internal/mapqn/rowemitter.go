package mapqn

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/markov"
	"repro/internal/matrix"
)

// Row synthesis for the K-station network CTMC, shared by the two
// solver backends. The solver reads only Q^T, so both are built on the
// transpose emitter:
//
//   - the materialized CSR path streams every row of Q^T into CSR arrays
//     once — Q itself is never stored;
//   - the matrix-free path regenerates rows on each product, storing only
//     the per-row diagonal — O(states) for solver vectors instead of
//     O(nnz) for the generator, which lifts the state-space ceiling from
//     what CSR arrays fit in memory to millions of states.
//
// The forward emitter yields rows of Q: one pass over it records the
// diagonal and the nonzero count both backends need (the tests also
// assemble Q from it as a reference).
//
// Both emitters walk states in row order (population vectors in compRank
// order via nextComposition, phases as a mixed-radix odometer) and can
// seek to an arbitrary row via compUnrank, so parallel kernels partition
// the walk into contiguous row blocks exactly like the internal/matrix
// CSR kernels. Rows come out entry-for-entry identical to the
// materialized generator (same emission order, same insertion sort, same
// floating-point diagonal accumulation), which keeps every product and
// Gauss-Seidel sweep bit-identical across backends.

// genParams bundles the model-derived constants row synthesis needs:
// the state space, the effective service MAPs, and the precomputed
// strides and rates of the generator's transition structure.
type genParams struct {
	space   *stateSpaceN
	maps    []*markov.MAP
	idleRun bool
	k       int // stations
	n       int // customers
	pp      int // phase product (phase combinations per population vector)
	size    int // total states
	// custRate is the think-completion rate per thinking customer: 1/Z,
	// or the 1e9 sentinel that models Z = 0 as a near-instantaneous think
	// stage to keep the chain well-formed.
	custRate    float64
	phaseStride []int
	// est bounds the non-zeros of any row: diagonal + think + per-station
	// D1 row (phases[i] completions) + D0 off-diagonals (phases[i]-1),
	// which the free-running idle semantics cannot exceed. The transpose
	// rows obey the same bound (each forward entry transposes once).
	est int
}

// newGenParams derives the synthesis parameters, erroring only when the
// state count overflows int; callers enforce their backend's MaxStates.
func newGenParams(m NetworkModel, maps []*markov.MAP) (*genParams, error) {
	k := len(maps)
	phases := make([]int, k)
	for i, mp := range maps {
		phases[i] = mp.Order()
	}
	space := newStateSpaceN(m.Customers, phases)
	size, err := space.sizeChecked()
	if err != nil {
		return nil, err
	}
	custRate := 1e9
	if m.ThinkTime > 0 {
		custRate = 1 / m.ThinkTime
	}
	phaseStride := make([]int, k)
	stride := 1
	for i := k - 1; i >= 0; i-- {
		phaseStride[i] = stride
		stride *= phases[i]
	}
	est := 2
	for _, p := range phases {
		est += 2*p - 1
	}
	return &genParams{
		space: space, maps: maps, idleRun: m.PhasesRunWhileIdle,
		k: k, n: m.Customers, pp: space.phaseProd, size: size,
		custRate: custRate, phaseStride: phaseStride, est: est,
	}, nil
}

// rowWalker tracks a position in the state enumeration: the population
// vector, the mixed-radix phase digits, and the flat row/phase indices.
// It is embedded by both emitters so they advance and seek identically.
type rowWalker struct {
	g     *genParams
	pop   []int
	phase []int // mixed-radix digits of ph, station 0 most significant
	row   int
	ph    int
}

func newRowWalker(g *genParams) rowWalker {
	return rowWalker{
		g:     g,
		pop:   make([]int, g.k),
		phase: make([]int, g.k),
	}
}

// seekTo positions the walker at row (compUnrank plus phase-digit
// decode). The embedding emitter must re-derive its block data after.
func (w *rowWalker) seekTo(row int) {
	g := w.g
	w.row = row
	w.ph = row % g.pp
	g.space.compUnrank(row/g.pp, w.pop)
	p := w.ph
	for i := g.k - 1; i >= 0; i-- {
		w.phase[i] = p % g.space.phases[i]
		p /= g.space.phases[i]
	}
}

// step advances to the next row, returning true when the walk entered a
// new population block (the embedding emitter must then re-derive its
// block data). Costs O(K) — no compUnrank per state.
func (w *rowWalker) step() bool {
	g := w.g
	w.row++
	// Advance the phase odometer (station k-1 fastest).
	for i := g.k - 1; i >= 0; i-- {
		w.phase[i]++
		if w.phase[i] < g.space.phases[i] {
			break
		}
		w.phase[i] = 0
	}
	w.ph++
	if w.ph < g.pp {
		return false
	}
	w.ph = 0
	return g.space.nextComposition(w.pop)
}

// rowEmitter synthesizes forward generator rows. It accumulates each
// row's diagonal, which the transpose rows carry.
type rowEmitter struct {
	rowWalker
	complBase []int
	thinkBase int // destination base of a think completion, -1 when the pool is empty
	thinking  int
	diag      float64 // diagonal of the most recently emitted row
}

// newRowEmitter returns an emitter positioned at row 0.
func newRowEmitter(g *genParams) *rowEmitter {
	e := &rowEmitter{rowWalker: newRowWalker(g), complBase: make([]int, g.k)}
	e.setupBlock()
	return e
}

// seek repositions the emitter at an arbitrary row — how parallel
// workers enter their contiguous row-block range.
func (e *rowEmitter) seek(row int) {
	e.seekTo(row)
	e.setupBlock()
}

// setupBlock ranks the destination compositions of the current
// population vector once per block; they are phase-independent.
func (e *rowEmitter) setupBlock() {
	g := e.g
	pop := e.pop
	total := 0
	for _, v := range pop {
		total += v
	}
	e.thinking = g.n - total
	e.thinkBase = -1
	if e.thinking > 0 {
		pop[0]++
		e.thinkBase = g.space.compRank(pop) * g.pp
		pop[0]--
	}
	for i := 0; i < g.k; i++ {
		if pop[i] > 0 {
			pop[i]--
			if i+1 < g.k {
				pop[i+1]++
			}
			e.complBase[i] = g.space.compRank(pop) * g.pp
			if i+1 < g.k {
				pop[i+1]--
			}
			pop[i]++
		}
	}
}

// emitRow appends the current row's entries — off-diagonals plus the
// accumulated diagonal, insertion-sorted by column — to cols/vals,
// records the diagonal in e.diag, advances to the next row, and returns
// the grown slices. Appending into caller-owned slices lets the CSR
// assembly build its arrays directly while product kernels pass a
// reusable per-row scratch.
func (e *rowEmitter) emitRow(cols []int, vals []float64) ([]int, []float64) {
	g := e.g
	start := len(cols)
	row, ph := e.row, e.ph
	diag := 0.0
	// emit appends one off-diagonal entry and folds its rate into diag.
	emit := func(col int, rate float64) {
		if rate <= 0 {
			return
		}
		cols = append(cols, col)
		vals = append(vals, rate)
		diag -= rate
	}
	// Think completions: a customer submits a request to station 0.
	if e.thinkBase >= 0 {
		emit(e.thinkBase+ph, float64(e.thinking)*g.custRate)
	}
	for i := 0; i < g.k; i++ {
		mp := g.maps[i]
		j := e.phase[i]
		st := g.phaseStride[i]
		if e.pop[i] > 0 {
			// Completion: job moves to station i+1, or back to the think
			// pool from the last station; phase change without completion
			// stays in this block.
			phaseBase := ph - j*st
			for t := 0; t < g.space.phases[i]; t++ {
				emit(e.complBase[i]+phaseBase+t*st, mp.D1.At(j, t))
				if t != j {
					emit(row+(t-j)*st, mp.D0.At(j, t))
				}
			}
		} else if g.idleRun {
			// Idle station with a free-running environment: the modulating
			// chain Q = D0+D1 evolves without completions.
			for t := 0; t < g.space.phases[i]; t++ {
				if t != j {
					emit(row+(t-j)*st, mp.D0.At(j, t)+mp.D1.At(j, t))
				}
			}
		}
	}
	e.diag = diag
	if diag != 0 {
		cols = append(cols, row)
		vals = append(vals, diag)
	}
	// Insertion-sort this row's few entries by column so the row is
	// canonical (NewCSR-equivalent).
	for a := start + 1; a < len(cols); a++ {
		c, v := cols[a], vals[a]
		b := a
		for b > start && cols[b-1] > c {
			cols[b] = cols[b-1]
			vals[b] = vals[b-1]
			b--
		}
		cols[b] = c
		vals[b] = v
	}
	if e.step() {
		e.setupBlock()
	}
	return cols, vals
}

// transEmitter synthesizes rows of Q^T — row s lists the predecessors of
// state s with their inbound rates, sources ascending. The ordering
// matches matrix.CSR.Transpose output (which scans forward rows in
// order), and each value is a single model rate or the precomputed
// forward diagonal, so the rows are bit-identical to the materialized
// transpose: the gather VecMulTo and the Gauss-Seidel sweeps consuming
// them reproduce the CSR backend's arithmetic exactly.
type transEmitter struct {
	rowWalker
	diag         []float64 // forward-accumulated diagonal per row (read-only)
	complSrcBase []int     // source block of a completion at station i, -1 when infeasible
	thinkSrcBase int       // source block with one more thinker, -1 when pop[0] == 0
	thinking     int
}

// newTransEmitter returns a transpose emitter positioned at row 0. diag
// must hold the forward diagonal of every row (see matrixFreeGen).
func newTransEmitter(g *genParams, diag []float64) *transEmitter {
	e := &transEmitter{rowWalker: newRowWalker(g), diag: diag, complSrcBase: make([]int, g.k)}
	e.setupBlock()
	return e
}

func (e *transEmitter) seek(row int) {
	e.seekTo(row)
	e.setupBlock()
}

// setupBlock ranks the phase-independent source compositions: the think
// predecessor (one more thinker, one fewer job at station 0) and, per
// station, the completion predecessor (one more job at station i, one
// fewer at its successor — the think pool for the last station).
func (e *transEmitter) setupBlock() {
	g := e.g
	pop := e.pop
	total := 0
	for _, v := range pop {
		total += v
	}
	e.thinking = g.n - total
	e.thinkSrcBase = -1
	if pop[0] > 0 {
		pop[0]--
		e.thinkSrcBase = g.space.compRank(pop) * g.pp
		pop[0]++
	}
	for i := 0; i < g.k; i++ {
		e.complSrcBase[i] = -1
		feasible := e.thinking > 0 // last station: the completed job sits in the think pool
		if i+1 < g.k {
			feasible = pop[i+1] > 0 // inner station: the job sits at the successor
		}
		if feasible {
			pop[i]++
			if i+1 < g.k {
				pop[i+1]--
			}
			e.complSrcBase[i] = g.space.compRank(pop) * g.pp
			if i+1 < g.k {
				pop[i+1]++
			}
			pop[i]--
		}
	}
}

// emitRow appends row e.row of Q^T (sources ascending) to cols/vals,
// advances, and returns the grown slices.
func (e *transEmitter) emitRow(cols []int, vals []float64) ([]int, []float64) {
	g := e.g
	start := len(cols)
	row, ph := e.row, e.ph
	emit := func(col int, rate float64) {
		if rate <= 0 {
			return
		}
		cols = append(cols, col)
		vals = append(vals, rate)
	}
	// Inbound think completion: the source had one more thinker, so its
	// outbound rate was (thinking+1) * custRate.
	if e.thinkSrcBase >= 0 {
		emit(e.thinkSrcBase+ph, float64(e.thinking+1)*g.custRate)
	}
	for i := 0; i < g.k; i++ {
		mp := g.maps[i]
		j := e.phase[i]
		st := g.phaseStride[i]
		if e.complSrcBase[i] >= 0 {
			// Inbound completion at station i from any source phase t,
			// jumping t -> j with rate D1[t,j].
			phaseBase := ph - j*st
			for t := 0; t < g.space.phases[i]; t++ {
				emit(e.complSrcBase[i]+phaseBase+t*st, mp.D1.At(t, j))
			}
		}
		if e.pop[i] > 0 {
			// Inbound phase change without completion at a busy station.
			for t := 0; t < g.space.phases[i]; t++ {
				if t != j {
					emit(row+(t-j)*st, mp.D0.At(t, j))
				}
			}
		} else if g.idleRun {
			// Inbound free-running phase change at an idle station.
			for t := 0; t < g.space.phases[i]; t++ {
				if t != j {
					emit(row+(t-j)*st, mp.D0.At(t, j)+mp.D1.At(t, j))
				}
			}
		}
	}
	if d := e.diag[row]; d != 0 {
		cols = append(cols, row)
		vals = append(vals, d)
	}
	for a := start + 1; a < len(cols); a++ {
		c, v := cols[a], vals[a]
		b := a
		for b > start && cols[b-1] > c {
			cols[b] = cols[b-1]
			vals[b] = vals[b-1]
			b--
		}
		cols[b] = c
		vals[b] = v
	}
	if e.step() {
		e.setupBlock()
	}
	return cols, vals
}

// matrixFreeGen is the matrix-free generator backend: a ctmc.Operator
// whose products regenerate rows per call instead of reading stored
// nonzeros. Persistent state is one float64 per row (the diagonal,
// which the transpose rows and MaxAbsDiag need) — everything else is
// O(K + phases) per worker.
type matrixFreeGen struct {
	g       *genParams
	diag    []float64
	nnz     int
	maxDiag float64
}

// newMatrixFreeGen builds the operator: one forward pass (parallel over
// row blocks) records each row's diagonal in CSR emission order — the
// identical float the materialized path stores — and counts the stored
// entries the product kernels size their fan-out by and assembleTranspose
// sizes its arrays by.
func newMatrixFreeGen(ctx context.Context, g *genParams) (*matrixFreeGen, error) {
	q := &matrixFreeGen{g: g, diag: make([]float64, g.size)}
	workers := matrix.SpMVWorkers(g.size * g.est)
	bounds := matrix.RowBlocks(g.size, workers)
	counts := make([]int, workers)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w, lo, hi int) {
			defer wg.Done()
			e := newRowEmitter(g)
			if lo > 0 {
				e.seek(lo)
			}
			cols := make([]int, 0, g.est)
			vals := make([]float64, 0, g.est)
			nnz := 0
			for r := lo; r < hi; r++ {
				if r&0xFFF == 0 && ctx.Err() != nil {
					return
				}
				cols, vals = e.emitRow(cols[:0], vals[:0])
				q.diag[r] = e.diag
				nnz += len(cols)
			}
			counts[w] = nnz
		}(w, bounds[w], bounds[w+1])
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	for _, c := range counts {
		q.nnz += c
	}
	for _, d := range q.diag {
		if d < 0 {
			d = -d
		}
		if d > q.maxDiag {
			q.maxDiag = d
		}
	}
	return q, nil
}

// Dim returns the number of states.
func (q *matrixFreeGen) Dim() int { return q.g.size }

// NNZ returns the number of entries a materialized generator would store.
func (q *matrixFreeGen) NNZ() int { return q.nnz }

// MaxAbsDiag returns max_i |q_ii|.
func (q *matrixFreeGen) MaxAbsDiag() float64 { return q.maxDiag }

// VecMulTo computes y = x*Q as a gather over regenerated transpose rows:
// row s of Q^T lists the terms Q[r,s]*x[r] in increasing r — the order
// and association of both the sequential CSR scatter and the parallel
// cached-transpose gather — so the result is bit-identical to the
// materialized product.
func (q *matrixFreeGen) VecMulTo(y, x []float64) {
	n := q.g.size
	if len(x) != n || len(y) != n {
		panic(fmt.Sprintf("mapqn: VecMul length %d/%d, want %d", len(x), len(y), n))
	}
	q.runBlocks(func(lo, hi int) {
		e := newTransEmitter(q.g, q.diag)
		if lo > 0 {
			e.seek(lo)
		}
		cols := make([]int, 0, q.g.est)
		vals := make([]float64, 0, q.g.est)
		for r := lo; r < hi; r++ {
			cols, vals = e.emitRow(cols[:0], vals[:0])
			sum := 0.0
			for k, c := range cols {
				sum += vals[k] * x[c]
			}
			y[r] = sum
		}
	})
}

// runBlocks executes kernel over contiguous row blocks, inline when the
// chain is too small to amortize goroutine handoff.
func (q *matrixFreeGen) runBlocks(kernel func(lo, hi int)) {
	workers := matrix.SpMVWorkers(q.nnz)
	if workers == 1 {
		kernel(0, q.g.size)
		return
	}
	bounds := matrix.RowBlocks(q.g.size, workers)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(lo, hi int) {
			defer wg.Done()
			kernel(lo, hi)
		}(bounds[w], bounds[w+1])
	}
	wg.Wait()
}

// ScanTranspose hands each regenerated row of Q^T to fn in row order —
// the access pattern Gauss-Seidel sweeps need. Rows are synthesized
// into a scratch reused across calls; they match the materialized
// transpose entry for entry.
func (q *matrixFreeGen) ScanTranspose(fn func(row int, cols []int, vals []float64)) {
	e := newTransEmitter(q.g, q.diag)
	cols := make([]int, 0, q.g.est)
	vals := make([]float64, 0, q.g.est)
	for r := 0; r < q.g.size; r++ {
		cols, vals = e.emitRow(cols[:0], vals[:0])
		fn(r, cols, vals)
	}
}

// reverseChunk is how many rows ScanTransposeReverse regenerates per
// seek: enough to amortize the seek's composition unranking, few enough
// that the chunk's rows stay a small scratch.
const reverseChunk = 256

// ScanTransposeReverse hands the rows of Q^T to fn in descending order.
// The emitter only walks forward, so it seeks to the start of each row
// chunk, regenerates the chunk's rows forward, and hands them back in
// reverse — the same rows ScanTranspose yields, entry for entry.
func (q *matrixFreeGen) ScanTransposeReverse(fn func(row int, cols []int, vals []float64)) {
	n := q.g.size
	chunk := min(reverseChunk, n)
	e := newTransEmitter(q.g, q.diag)
	ptr := make([]int, chunk+1)
	cols := make([]int, 0, chunk*q.g.est)
	vals := make([]float64, 0, chunk*q.g.est)
	for hi := n; hi > 0; {
		lo := max(0, hi-chunk)
		e.seek(lo)
		cols, vals = cols[:0], vals[:0]
		for r := lo; r < hi; r++ {
			cols, vals = e.emitRow(cols, vals)
			ptr[r-lo+1] = len(cols)
		}
		for r := hi - 1; r >= lo; r-- {
			a, b := ptr[r-lo], ptr[r-lo+1]
			fn(r, cols[a:b], vals[a:b])
		}
		hi = lo
	}
}

// assembleTranspose stores Q^T — the only form the solver reads — by
// streaming the transpose emitter's rows into CSR arrays sized exactly
// by the operator's nonzero count.
func (q *matrixFreeGen) assembleTranspose(ctx context.Context) (*matrix.CSR, error) {
	g := q.g
	rowPtr := make([]int, g.size+1)
	colIdx := make([]int, 0, q.nnz)
	vals := make([]float64, 0, q.nnz)
	e := newTransEmitter(g, q.diag)
	for row := 0; row < g.size; row++ {
		if row&0xFFF == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		colIdx, vals = e.emitRow(colIdx, vals)
		rowPtr[row+1] = len(colIdx)
	}
	return matrix.NewCSRFromRows(g.size, rowPtr, colIdx, vals), nil
}

// transposeOp presents a stored Q^T as the generator's ctmc.Operator:
// Q^T's rows are the transpose scans, and its ordinary product Q^T*x is
// the solver's x*Q — a gather that reproduces the matrix-free product
// bit for bit.
type transposeOp struct{ qt *matrix.CSR }

func (o transposeOp) Dim() int                { return o.qt.N }
func (o transposeOp) VecMulTo(y, x []float64) { o.qt.MulVecTo(y, x) }
func (o transposeOp) MaxAbsDiag() float64     { return o.qt.MaxAbsDiag() }

func (o transposeOp) ScanTranspose(fn func(row int, cols []int, vals []float64)) {
	o.qt.ScanRows(fn)
}

func (o transposeOp) ScanTransposeReverse(fn func(row int, cols []int, vals []float64)) {
	o.qt.ScanRowsReverse(fn)
}
