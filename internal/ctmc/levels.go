package ctmc

import (
	"fmt"
	"math"

	"repro/internal/matrix"
)

// Levels is a partition of a chain's states into blocks, for the coarse
// step of the iterative solver. The states come in groups of Width
// consecutive indices (in a queueing network, one population vector
// with its Width phase combinations), and group g lies at level
// Level[g]: state g*Width+p belongs to block (Level[g], p).
type Levels struct {
	Width int
	Level []int32
}

// count validates l for a chain of n states and returns its number of
// levels.
func (l Levels) count(n int) (int, error) {
	if l.Width < 1 || l.Width*len(l.Level) != n {
		return 0, fmt.Errorf("ctmc: levels of width %d over %d groups do not partition %d states", l.Width, len(l.Level), n)
	}
	top := int32(0)
	for _, v := range l.Level {
		if v < 0 {
			return 0, fmt.Errorf("ctmc: negative level %d", v)
		}
		top = max(top, v)
	}
	return int(top) + 1, nil
}

// Lumping is what the coarse step needs from a model whose every
// transition moves at most one level up or down in each of its
// partitions: the chain lumped onto a partition's blocks is then block
// tridiagonal, with Width-by-Width blocks, and level reduction solves it
// exactly in O(levels*Width^3).
type Lumping interface {
	// Partitions returns the partitions the coarse steps take in turn.
	Partitions() []Levels
	// Lump adds, for partition k and the iterate pi, the probability
	// flow sum pi_i*q_ij from the states i of each block to the states
	// j of each other block into flow, and each block's mass sum pi_i
	// into mass, both zeroed by the caller. flow holds, for each level
	// L, the three blocks of its block row (to level L-1, to L itself
	// and to L+1) at flow[(3L+r)*w*w:], r = 0, 1, 2, each row-major
	// with the source phase as row and the destination phase as
	// column; mass is level-major, block (L, p) at L*w+p. The diagonals
	// of the r = 1 blocks, flows within a block, are ignored.
	//
	// Reading the flows off Q^T costs a scattered add per off-diagonal,
	// three to four sweeps' time; a model that knows its rates sums
	// pi once per block and scales its rates by the sums.
	Lump(k int, pi, flow, mass []float64)
}

// coarse is the workspace of the coarse step: the lumped generator of
// one partition, the block masses and the coarse solution, sized for
// the largest partition, and the Width-by-Width scratch of level
// reduction. Its arrays grow with levels*Width^2, never with the
// number of states.
type coarse struct {
	lump    Lumping
	parts   []Levels
	levels  []int
	gen     []float64 // lumped flows, then generator blocks (see Lumping.Lump)
	mass    []float64 // block masses, level-major
	x       []float64 // coarse solution, then the rescale factors
	m, next []float64 // -U_L and the product buffer of reduce
	lu      *matrix.LU
	rhs     []float64
}

// newCoarse validates lump's partitions against a chain of n states
// and sizes the workspace; it returns nil when there are none.
func newCoarse(lump Lumping, n int) (*coarse, error) {
	if lump == nil {
		return nil, nil
	}
	parts := lump.Partitions()
	if len(parts) == 0 {
		return nil, nil
	}
	c := &coarse{lump: lump, parts: parts, levels: make([]int, len(parts)), lu: new(matrix.LU)}
	var genLen, blocks, width int
	for i, p := range parts {
		levels, err := p.count(n)
		if err != nil {
			return nil, err
		}
		c.levels[i] = levels
		genLen = max(genLen, 3*levels*p.Width*p.Width)
		blocks = max(blocks, levels*p.Width)
		width = max(width, p.Width)
	}
	c.gen = make([]float64, genLen)
	c.mass = make([]float64, blocks)
	c.x = make([]float64, blocks)
	c.m = make([]float64, width*width)
	c.next = make([]float64, width*width)
	c.rhs = make([]float64, width)
	return c, nil
}

// step runs the coarse correction of iteration it (1-based) on pi, with
// the partitions taken in turn: it lumps the chain onto the blocks of
// one partition, weighting each state by its share of its block's mass,
// solves the lumped chain exactly, and rescales every block of pi to
// the mass the lumped chain gives it, which also normalizes pi. When
// a block has no mass (as after a warm start from a smaller population)
// or level reduction fails, it leaves pi as is and returns false: the
// solver skips the step and keeps sweeping.
func (c *coarse) step(pi []float64, it int) bool {
	k := (it - 1) % len(c.parts)
	p, levels, w := c.parts[k], c.levels[k], c.parts[k].Width
	gen := c.gen[:3*levels*w*w]
	mass, x := c.mass[:levels*w], c.x[:levels*w]
	clear(gen)
	clear(mass)
	c.lump.Lump(k, pi, gen, mass)
	for _, v := range mass {
		if !(v > 0) {
			return false
		}
	}
	toGenerator(gen, mass, w)
	if !c.reduce(gen, w, levels, x) {
		return false
	}
	for b, v := range x {
		x[b] = v / mass[b]
	}
	i := 0
	for _, l := range p.Level {
		for _, v := range x[int(l)*w : int(l+1)*w] {
			pi[i] *= v
			i++
		}
	}
	return true
}

// toGenerator turns the block flows of Lumping.Lump into the generator
// of the lumped chain: each row, the flow out of one block, is divided
// by that block's mass, and its diagonal entry set to minus the sum of
// the others.
func toGenerator(gen, mass []float64, w int) {
	ww := w * w
	for b, m := range mass {
		l, ph := b/w, b%w
		inv := 1 / m
		out := 0.0
		for r := 0; r < 3; r++ {
			row := gen[(3*l+r)*ww+ph*w : (3*l+r)*ww+(ph+1)*w]
			for col := range row {
				if r == 1 && col == ph {
					continue
				}
				row[col] *= inv
				out += row[col]
			}
		}
		gen[(3*l+1)*ww+ph*w+ph] = -out
	}
}

// reduce solves x*G = 0, sum(x) = 1 for the block tridiagonal generator
// G in the layout of Lumping.Lump, by level reduction: censoring the levels
// from the top down, U_top = A_top and U_{L-1} = A_{L-1} + R_L*D_L with
// R_L = B_{L-1}*(-U_L)^{-1}, where A, B and D are the blocks to the same
// level, the one above and the one below. U_0 is the chain censored on
// level 0, whose stationary vector starts the expansion
// x_L = x_{L-1}*R_L. R_L overwrites B_{L-1} in gen. The cost is
// O(levels*w^3), with no allocation. It returns false when a level is
// singular or the solution is not a finite non-negative vector.
func (c *coarse) reduce(gen []float64, w, levels int, x []float64) bool {
	ww := w * w
	block := func(l, r int) matrix.Dense {
		return matrix.Dense{Rows: w, Cols: w, Data: gen[(3*l+r)*ww : (3*l+r+1)*ww]}
	}
	m := matrix.Dense{Rows: w, Cols: w, Data: c.m[:ww]}
	next := matrix.Dense{Rows: w, Cols: w, Data: c.next[:ww]}
	for k, v := range gen[(3*levels-2)*ww : (3*levels-1)*ww] {
		m.Data[k] = -v
	}
	for l := levels - 1; l >= 1; l-- {
		// next = (-U_l)^{-1}; R_l = B_{l-1}*next, stored over B_{l-1}.
		c.lu.Reset(w)
		if matrix.InverseTo(&next, &m, c.lu) != nil {
			return false
		}
		b, d := block(l-1, 2), block(l, 0)
		b.MulTo(&m, &next)
		copy(b.Data, m.Data)
		// m = -U_{l-1} = -A_{l-1} - R_l*D_l. Each row of U_{l-1} sums to
		// minus the row of D_{l-1}, the flow out of the levels <= l-1,
		// so its diagonal is taken from that sum and the off-diagonals,
		// which are all non-negative, rather than by cancellation.
		b.MulTo(&next, &d)
		for k, v := range gen[(3*l-2)*ww : (3*l-1)*ww] {
			m.Data[k] = -v - next.Data[k]
		}
		down := gen[(3*l-3)*ww : (3*l-2)*ww]
		for p := 0; p < w; p++ {
			out := 0.0
			for q := 0; q < w; q++ {
				out += down[p*w+q]
				if q != p {
					out -= m.Data[p*w+q]
				}
			}
			m.Data[p*w+p] = out
		}
	}
	// x_0 solves x_0*U_0 = 0: the transposed system with its last
	// equation replaced by x_0*1 = 1.
	t := c.lu.Reset(w)
	for r := 0; r < w; r++ {
		for col := 0; col < w; col++ {
			t.Set(col, r, m.At(r, col))
		}
	}
	for col := 0; col < w; col++ {
		t.Set(w-1, col, 1)
	}
	clear(c.rhs[:w])
	c.rhs[w-1] = 1
	if c.lu.Refactor(t) != nil || c.lu.SolveTo(x[:w], c.rhs[:w]) != nil {
		return false
	}
	// The expansion can span hundreds of decades on a saturated chain:
	// rescale everything computed so far whenever a level grows past
	// 1e250.
	const rescaleAt = 1e250
	for l := 1; l < levels; l++ {
		level := x[l*w : (l+1)*w]
		r := block(l-1, 2)
		r.VecMulTo(level, x[(l-1)*w:l*w])
		top := 0.0
		for _, v := range level {
			top = max(top, math.Abs(v))
		}
		if top > rescaleAt {
			for k := range x[:(l+1)*w] {
				x[k] /= rescaleAt
			}
		}
	}
	total := 0.0
	for _, v := range x {
		if !(v >= 0) || math.IsInf(v, 0) {
			return false
		}
		total += v
	}
	if !(total > 0) || math.IsInf(total, 0) {
		return false
	}
	for k := range x {
		x[k] /= total
	}
	return true
}
