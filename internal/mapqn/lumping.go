package mapqn

import "repro/internal/ctmc"

// networkLumping is the network chain as the solver's coarse step sees
// it (ctmc.Lumping): one partition per station k, with the blocks
// (n_k, phase vector). A transition moves one job by one station, so it
// changes each n_k by at most one.
//
// The flows between blocks follow from the model's rates and a few sums
// of pi per block: a phase change or a completion at station s leaves
// every state of a block at a rate set by the block's phase vector and
// whether s is busy, and a think completion at a rate proportional to
// the thinking customers. So Lump makes one pass over pi, adding the
// phase vector of each population vector into its block row's busy or
// idle mass for every station and into the think-weighted mass, and
// then scales the rates by those sums block by block.
type networkLumping struct {
	g     *genParams
	parts []ctmc.Levels
	// sums holds the block sums of the partition being lumped, each
	// level-major like the masses: the mass with station s busy at
	// [s], with station s idle at [k+s], and the mass weighted by the
	// thinking customers at [2k].
	sums  [][]float64
	phase []int // the phase digits of the block being lumped
}

// newNetworkLumping returns the lumping of g's chain. Its tables are
// built on the first call of Partitions, which the solver makes only on
// its iterative path, so a chain it solves densely costs nothing more.
func newNetworkLumping(g *genParams) *networkLumping {
	return &networkLumping{g: g}
}

// Partitions returns the per-station partitions: partition s puts each
// population vector at level n_s. The tables hold one entry per
// population vector and station, not per state.
func (l *networkLumping) Partitions() []ctmc.Levels {
	if l.parts != nil {
		return l.parts
	}
	g := l.g
	comps := g.space.comps
	flat := make([]int32, g.k*comps)
	l.parts = make([]ctmc.Levels, g.k)
	for s := range l.parts {
		l.parts[s] = ctmc.Levels{Width: g.pp, Level: flat[s*comps : (s+1)*comps]}
	}
	pop := make([]int, g.k)
	for c := 0; ; c++ {
		for s, v := range pop {
			flat[s*comps+c] = int32(v)
		}
		if !g.space.nextComposition(pop) {
			break
		}
	}
	blocks := (g.n + 1) * g.pp
	l.sums = make([][]float64, 2*g.k+1)
	backing := make([]float64, len(l.sums)*blocks)
	for f := range l.sums {
		l.sums[f] = backing[f*blocks : (f+1)*blocks]
	}
	l.phase = make([]int, g.k)
	return l.parts
}

// Lump adds the block flows and masses of partition part
// (ctmc.Lumping), after Partitions has built the tables.
func (l *networkLumping) Lump(part int, pi, flow, mass []float64) {
	g := l.g
	pp, k := g.pp, g.k
	for _, f := range l.sums {
		clear(f[:len(mass)])
	}
	think := l.sums[2*k]
	for c, lc := range l.parts[part].Level {
		lo := int(lc) * pp
		src := pi[c*pp : (c+1)*pp]
		addTo(mass[lo:lo+pp], src)
		thinking := g.n
		for s, p := range l.parts {
			n := p.Level[c]
			thinking -= int(n)
			f := s
			if n == 0 {
				f += k
			}
			addTo(l.sums[f][lo:lo+pp], src)
		}
		if thinking > 0 {
			w := float64(thinking)
			dst := think[lo : lo+pp]
			for ph, v := range src {
				dst[ph] += w * v
			}
		}
	}

	ww := pp * pp
	phase := l.phase
	clear(phase)
	for b := range mass {
		lv, ph := b/pp, b%pp
		// rows[r] is the block's row of flows to level lv-1+r.
		var rows [3][]float64
		for r := range rows {
			rows[r] = flow[(3*lv+r)*ww+ph*pp : (3*lv+r)*ww+(ph+1)*pp]
		}
		if part == 0 {
			// A think completion adds a job at station 0.
			rows[2][ph] += think[b] * g.custRate
		}
		for s, mp := range g.maps {
			t, st := phase[s], g.phaseStride[s]
			base := ph - t*st
			// A completion at station s lowers n_s and raises n_{s+1}.
			done := rows[1]
			if s == part {
				done = rows[0]
			} else if s+1 == part {
				done = rows[2]
			}
			busy, idle := l.sums[s][b], l.sums[k+s][b]
			for u := 0; u < g.space.phases[s]; u++ {
				dst := base + u*st
				done[dst] += busy * mp.D1.At(t, u)
				if u == t {
					continue
				}
				rows[1][dst] += busy * mp.D0.At(t, u)
				if g.idleRun {
					rows[1][dst] += idle * (mp.D0.At(t, u) + mp.D1.At(t, u))
				}
			}
		}
		// Advance the phase odometer (the last station fastest).
		for s := k - 1; s >= 0; s-- {
			if phase[s]++; phase[s] < g.space.phases[s] {
				break
			}
			phase[s] = 0
		}
	}
}

// addTo adds src into dst element by element.
func addTo(dst, src []float64) {
	dst = dst[:len(src)]
	for i, v := range src {
		dst[i] += v
	}
}
