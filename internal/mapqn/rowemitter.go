package mapqn

import (
	"context"
	"fmt"

	"repro/internal/ctmc"
	"repro/internal/markov"
	"repro/internal/matrix"
)

// Row synthesis for the K-station network CTMC. The solver reads only
// Q^T, as one ctmc.RowBlock (int32 sources and values per row, the
// diagonal held apart), so assembleTranspose stores the generator in
// that form alone, streaming every row of Q^T from the transpose
// emitter once; Q itself is never stored.
//
// The forward emitter walks the transitions of each row of Q: one pass
// over it sums the diagonal every transpose row carries and counts the
// off-diagonals the stored arrays are sized by, storing no entry (the
// tests also assemble Q from it as a reference).
//
// Both emitters walk states in row order (population vectors in compRank
// order via nextComposition, phases as a mixed-radix odometer). The
// forward emitter can also seek to an arbitrary row via compUnrank, so
// the diagonal pass partitions the walk into contiguous row blocks
// exactly like the internal/matrix CSR kernels. Transpose rows come out
// entry-for-entry identical to the materialized generator transposed
// (same emission order, same insertion sort, same floating-point
// diagonal accumulation), which keeps every product and Gauss-Seidel
// sweep bit-identical to a solve of the stored Q.

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
// state count overflows int; callers enforce MaxStates.
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
// It is embedded by both emitters so they advance identically.
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

// transitions calls fn with each off-diagonal entry of the current row,
// its column and its positive rate, in emission order: the think
// completion, then station by station the completions and phase
// changes.
func (e *rowEmitter) transitions(fn func(col int, rate float64)) {
	g := e.g
	row, ph := e.row, e.ph
	emit := func(col int, rate float64) {
		if rate > 0 {
			fn(col, rate)
		}
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
}

// emitRow appends the current row's entries — off-diagonals plus the
// accumulated diagonal, insertion-sorted by column — to cols/vals,
// records the diagonal in e.diag, advances to the next row, and returns
// the grown slices. The tests assemble Q from it.
func (e *rowEmitter) emitRow(cols []int, vals []float64) ([]int, []float64) {
	start := len(cols)
	diag := 0.0
	e.transitions(func(col int, rate float64) {
		cols = append(cols, col)
		vals = append(vals, rate)
		diag -= rate
	})
	e.diag = diag
	if diag != 0 {
		cols = append(cols, e.row)
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

// diagonal returns the current row's diagonal, the rates summed in
// emission order as emitRow sums them, so the same float, and its count
// of off-diagonals, and advances to the next row. It stores no entry.
func (e *rowEmitter) diagonal() (float64, int) {
	diag, off := 0.0, 0
	e.transitions(func(_ int, rate float64) {
		diag -= rate
		off++
	})
	if e.step() {
		e.setupBlock()
	}
	return diag, off
}

// transEmitter synthesizes rows of Q^T — row s lists the predecessors of
// state s with their inbound rates, sources ascending. The ordering
// matches matrix.CSR.Transpose output (which scans forward rows in
// order) and each value is a single model rate, so with the diagonal
// the forward pass accumulates, the rows are bit-identical to the
// materialized transpose: the gather VecMulTo and the Gauss-Seidel
// sweeps consuming them reproduce a CSR solve's arithmetic exactly.
type transEmitter struct {
	rowWalker
	complSrcBase []int // source block of a completion at station i, -1 when infeasible
	thinkSrcBase int   // source block with one more thinker, -1 when pop[0] == 0
	thinking     int
}

// newTransEmitter returns a transpose emitter positioned at row 0.
func newTransEmitter(g *genParams) *transEmitter {
	e := &transEmitter{rowWalker: newRowWalker(g), complSrcBase: make([]int, g.k)}
	e.setupBlock()
	return e
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
// row's diagonal comes from the forward pass (forwardDiagonal).
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

// forwardDiagonal runs the forward emitter over every row, in parallel
// over contiguous row ranges, and returns each row's diagonal — the
// identical float, accumulated in CSR emission order, that a stored Q
// holds — and the number of off-diagonal entries.
func forwardDiagonal(ctx context.Context, g *genParams) ([]float64, int, error) {
	diag := make([]float64, g.size)
	workers := matrix.SpMVWorkers(g.size * g.est)
	counts := make([]int, workers)
	matrix.ForRowBlocks(g.size, workers, func(w, lo, hi int) {
		e := newRowEmitter(g)
		if lo > 0 {
			e.seek(lo)
		}
		off := 0
		for r := lo; r < hi; r++ {
			if r&0xFFF == 0 && ctx.Err() != nil {
				return
			}
			d, n := e.diagonal()
			diag[r] = d
			off += n
		}
		counts[w] = off
	})
	if err := ctx.Err(); err != nil {
		return nil, 0, err
	}
	off := 0
	for _, c := range counts {
		off += c
	}
	return diag, off, nil
}

// assembleTranspose stores Q^T — the only form the solver reads — as one
// ctmc.RowBlock: forwardDiagonal records the diagonal, then the
// transpose emitter streams every row's off-diagonals into entry arrays
// sized exactly by their count. The block indexes states with int32,
// so a state count beyond that range fails first, with ErrStateLimit.
func assembleTranspose(ctx context.Context, g *genParams) (*ctmc.RowBlock, error) {
	if err := ctmc.CheckCompactSize(g.size, 0); err != nil {
		return nil, fmt.Errorf("mapqn: %w: %w", err, ErrStateLimit)
	}
	diag, off, err := forwardDiagonal(ctx, g)
	if err != nil {
		return nil, err
	}
	if err := ctmc.CheckCompactSize(g.size, off); err != nil {
		return nil, fmt.Errorf("mapqn: %w: %w", err, ErrStateLimit)
	}
	b := &ctmc.RowBlock{
		Diag: diag,
		Ptr:  make([]int32, 1, g.size+1),
		Cols: make([]int32, 0, off),
		Vals: make([]float64, 0, off),
	}
	e := newTransEmitter(g)
	for row := 0; row < g.size; row++ {
		if row&0xFFF == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		b.Cols, b.Vals = e.emitRow(b.Cols, b.Vals)
		b.Ptr = append(b.Ptr, int32(len(b.Cols)))
	}
	return b, nil
}
