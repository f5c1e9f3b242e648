package mapqn

import (
	"context"
	"fmt"

	"repro/internal/ctmc"
	"repro/internal/markov"
	"repro/internal/matrix"
)

// Row synthesis for the K-station network CTMC, shared by the two
// solver backends. The solver reads only Q^T, as ctmc.RowBlocks (int32
// sources and values per row, the diagonal held apart), so both are
// built on the transpose emitter:
//
//   - the stored ("csr") path streams every row of Q^T into one
//     RowBlock over all rows, once — Q itself is never stored;
//   - the matrix-free path regenerates blocks of rows on each product
//     and scan, storing only the per-row diagonal — O(states) for solver
//     vectors instead of O(nnz) for the generator, which lifts the
//     state-space ceiling from what stored arrays fit in memory to
//     millions of states.
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
// order), each value is a single model rate, and the diagonal is the
// precomputed forward one, so the rows are bit-identical to the
// materialized transpose: the gather VecMulTo and the Gauss-Seidel
// sweeps consuming them reproduce the stored backend's arithmetic
// exactly.
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

// emitRow appends the off-diagonal entries of row e.row of Q^T (sources
// ascending) to cols/vals, advances, and returns the grown slices. The
// row's diagonal is e.diag[row], which blocks reference in place.
func (e *transEmitter) emitRow(cols []int32, vals []float64) ([]int32, []float64) {
	g := e.g
	start := len(cols)
	row, ph := e.row, e.ph
	emit := func(col int, rate float64) {
		if rate <= 0 {
			return
		}
		cols = append(cols, int32(col))
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

// startBlock empties b at row lo, keeping its arrays' capacity, and
// positions the emitter at lo — a seek only when it is not already
// there.
func (e *transEmitter) startBlock(b *ctmc.RowBlock, lo int) {
	if e.row != lo {
		e.seek(lo)
	}
	b.Lo, b.Hi = lo, lo
	b.Ptr = append(b.Ptr[:0], 0)
	b.Cols, b.Vals = b.Cols[:0], b.Vals[:0]
}

// extendBlock emits rows [b.Hi, hi) onto b; the emitter must stand at
// row b.Hi.
func (e *transEmitter) extendBlock(b *ctmc.RowBlock, hi int) {
	for e.row < hi {
		b.Cols, b.Vals = e.emitRow(b.Cols, b.Vals)
		b.Ptr = append(b.Ptr, int32(len(b.Cols)))
	}
	b.Hi = hi
	b.Diag = e.diag[b.Lo:hi]
}

// fillBlock regenerates rows [lo, hi) of Q^T into b, reusing its arrays.
func (e *transEmitter) fillBlock(b *ctmc.RowBlock, lo, hi int) {
	e.startBlock(b, lo)
	e.extendBlock(b, hi)
}

// matrixFreeGen is the matrix-free generator backend: a ctmc.Operator
// whose products regenerate rows per call instead of reading stored
// nonzeros. Persistent state is one float64 per row (the diagonal,
// which the transpose rows and MaxAbsDiag need) plus, per product
// worker, an emitter and a one-chunk block reused across calls. Like
// the solver that drives it, an operator runs one scan or product at a
// time.
type matrixFreeGen struct {
	g       *genParams
	diag    []float64
	nnz     int
	maxDiag float64
	workers int
	scratch []*chunkScratch // per worker, built on first use
}

// chunkScratch is one worker's reusable row-regeneration state.
type chunkScratch struct {
	e *transEmitter
	b *ctmc.RowBlock
}

// newMatrixFreeGen builds the operator: one forward pass (parallel over
// row blocks) records each row's diagonal in CSR emission order — the
// identical float the materialized path stores — and counts the stored
// entries the product kernels size their fan-out by and assembleTranspose
// sizes its arrays by. Both backends' blocks index states with int32, so
// a state count beyond that range fails here with ErrStateLimit.
func newMatrixFreeGen(ctx context.Context, g *genParams) (*matrixFreeGen, error) {
	if err := ctmc.CheckCompactSize(g.size, 0); err != nil {
		return nil, fmt.Errorf("mapqn: %w: %w", err, ErrStateLimit)
	}
	q := &matrixFreeGen{g: g, diag: make([]float64, g.size)}
	workers := matrix.SpMVWorkers(g.size * g.est)
	counts := make([]int, workers)
	matrix.ForRowBlocks(g.size, workers, func(w, lo, hi int) {
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
	})
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	for _, c := range counts {
		q.nnz += c
	}
	q.workers = matrix.SpMVWorkers(q.nnz)
	q.scratch = make([]*chunkScratch, q.workers)
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
// each worker regenerates its row range chunk by chunk and runs the
// stored backend's kernel (ctmc.RowBlock.MulRows) on each chunk, so the
// result is bit-identical to the stored product.
func (q *matrixFreeGen) VecMulTo(y, x []float64) {
	n := q.g.size
	if len(x) != n || len(y) != n {
		panic(fmt.Sprintf("mapqn: VecMul length %d/%d, want %d", len(x), len(y), n))
	}
	matrix.ForRowBlocks(n, q.workers, func(w, lo, hi int) {
		sc := q.chunkScratch(w)
		for clo := lo; clo < hi; clo += blockChunk {
			chi := min(clo+blockChunk, hi)
			sc.e.fillBlock(sc.b, clo, chi)
			sc.b.MulRows(y, x, clo, chi)
		}
	})
}

// blockChunk is how many rows the matrix-free scans regenerate per
// block: enough to amortize a seek's composition unranking and the
// per-block call, few enough that the block stays a small scratch.
const blockChunk = 256

// chunkScratch returns worker w's emitter and one-chunk block.
func (q *matrixFreeGen) chunkScratch(w int) *chunkScratch {
	if q.scratch[w] == nil {
		chunk := min(blockChunk, q.g.size)
		q.scratch[w] = &chunkScratch{
			e: newTransEmitter(q.g, q.diag),
			b: &ctmc.RowBlock{
				Ptr:  make([]int32, 0, chunk+1),
				Cols: make([]int32, 0, chunk*q.g.est),
				Vals: make([]float64, 0, chunk*q.g.est),
			},
		}
	}
	return q.scratch[w]
}

// ScanBlocks regenerates Q^T chunk by chunk in ascending row order into
// one reused block — the access pattern Gauss-Seidel sweeps need. The
// emitter walks on from one chunk to the next without seeking.
func (q *matrixFreeGen) ScanBlocks(fn func(b *ctmc.RowBlock)) {
	sc := q.chunkScratch(0)
	for lo := 0; lo < q.g.size; lo += blockChunk {
		sc.e.fillBlock(sc.b, lo, min(lo+blockChunk, q.g.size))
		fn(sc.b)
	}
}

// ScanBlocksReverse hands the chunks to fn in descending order. The
// emitter only walks forward, so it seeks to the start of each chunk
// and regenerates the chunk's rows forward — the same rows ScanBlocks
// yields, entry for entry.
func (q *matrixFreeGen) ScanBlocksReverse(fn func(b *ctmc.RowBlock)) {
	n := q.g.size
	sc := q.chunkScratch(0)
	for lo := (n - 1) / blockChunk * blockChunk; lo >= 0; lo -= blockChunk {
		sc.e.fillBlock(sc.b, lo, min(lo+blockChunk, n))
		fn(sc.b)
	}
}

// assembleTranspose stores Q^T — the only form the solver reads — by
// streaming the transpose emitter's rows into one ctmc.RowBlock over
// all rows. The entry arrays are sized exactly by the off-diagonal
// count, and the block's diagonal is the operator's own, not a copy.
func (q *matrixFreeGen) assembleTranspose(ctx context.Context) (*ctmc.RowBlock, error) {
	g := q.g
	off := q.nnz
	for _, d := range q.diag {
		if d != 0 {
			off--
		}
	}
	if err := ctmc.CheckCompactSize(g.size, off); err != nil {
		return nil, err
	}
	b := &ctmc.RowBlock{
		Ptr:  make([]int32, 0, g.size+1),
		Cols: make([]int32, 0, off),
		Vals: make([]float64, 0, off),
	}
	e := newTransEmitter(g, q.diag)
	e.startBlock(b, 0)
	for lo := 0; lo < g.size; lo += 0x1000 {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		e.extendBlock(b, min(lo+0x1000, g.size))
	}
	return b, nil
}
