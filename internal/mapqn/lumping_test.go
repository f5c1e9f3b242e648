package mapqn

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/ctmc"
	"repro/internal/markov"
)

// lumpFromTranspose reads the flows and masses of partition p off the
// stored Q^T (the definition in ctmc.Lumping), failing when a
// transition moves more than one level.
func lumpFromTranspose(t *testing.T, qt *ctmc.RowBlock, p ctmc.Levels, pi, flow, mass []float64) {
	t.Helper()
	w := p.Width
	for i := range qt.Diag {
		lc, ph := int(p.Level[i/w]), i%w
		mass[lc*w+ph] += pi[i]
		for a := qt.Ptr[i]; a < qt.Ptr[i+1]; a++ {
			j := int(qt.Cols[a])
			lj := int(p.Level[j/w])
			r := lc - lj + 1
			if r < 0 || r > 2 {
				t.Fatalf("transition %d -> %d moves from level %d to %d", j, i, lj, lc)
			}
			flow[((3*lj+r)*w+j%w)*w+ph] += qt.Vals[a] * pi[j]
		}
	}
}

// TestNetworkLumpingMatchesGenerator holds the lumping the coarse step
// uses, computed from the model's rates and block sums of pi, to the
// flows read off the stored Q^T entry by entry, within 1e-12 relative:
// K = 1 to 3 stations of random MAPs, both idle-phase semantics, zero
// and positive think time.
func TestNetworkLumpingMatchesGenerator(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for c := 0; c < 40; c++ {
		k := 1 + c%3
		maps := make([]*markov.MAP, k)
		stations := make([]Station, k)
		for i := range maps {
			maps[i] = randomMAP(t, rng)
			stations[i] = Station{MAP: maps[i]}
		}
		m := NetworkModel{
			Stations: stations, ThinkTime: []float64{0, 0.7}[c/3%2], Customers: 2 + rng.Intn(7),
			PhasesRunWhileIdle: c/6%2 == 1,
		}
		name := fmt.Sprintf("case %d (K=%d N=%d Z=%v idle=%v)", c, k, m.Customers, m.ThinkTime, m.PhasesRunWhileIdle)
		g, err := newGenParams(m, maps)
		if err != nil {
			t.Fatal(err)
		}
		qt, err := assembleTranspose(context.Background(), g)
		if err != nil {
			t.Fatal(err)
		}
		pi := make([]float64, g.size)
		for i := range pi {
			pi[i] = rng.Float64()
		}
		lump := newNetworkLumping(g)
		for part, p := range lump.Partitions() {
			size := 3 * (g.n + 1) * g.pp * g.pp
			got, want := make([]float64, size), make([]float64, size)
			gotMass, wantMass := make([]float64, (g.n+1)*g.pp), make([]float64, (g.n+1)*g.pp)
			lump.Lump(part, pi, got, gotMass)
			lumpFromTranspose(t, qt, p, pi, want, wantMass)
			for b := range wantMass {
				if math.Abs(gotMass[b]-wantMass[b]) > 1e-12*wantMass[b] {
					t.Fatalf("%s partition %d: block %d mass %v, want %v", name, part, b, gotMass[b], wantMass[b])
				}
			}
			ww := g.pp * g.pp
			for i := range want {
				blk, in := i/ww, i%ww
				if blk%3 == 1 && in/g.pp == in%g.pp {
					continue // a flow within a block
				}
				if math.Abs(got[i]-want[i]) > 1e-12*math.Abs(want[i]) {
					t.Fatalf("%s partition %d: flow from level %d phase %d to level %d phase %d is %v, want %v",
						name, part, blk/3, in/g.pp, blk/3+blk%3-1, in%g.pp, got[i], want[i])
				}
			}
		}
	}
}

// TestNetworkLumpAllocatesNothing: once Partitions has built the
// tables, lumping reuses them.
func TestNetworkLumpAllocatesNothing(t *testing.T) {
	m := twoTier(fitMAP(t, 0.0068, 4, 0.021), fitMAP(t, 0.0046, 400, 0.019), 0.5, 30)
	g, err := newGenParams(m, []*markov.MAP{m.Stations[0].MAP, m.Stations[1].MAP})
	if err != nil {
		t.Fatal(err)
	}
	lump := newNetworkLumping(g)
	lump.Partitions()
	pi := make([]float64, g.size)
	flow := make([]float64, 3*(g.n+1)*g.pp*g.pp)
	mass := make([]float64, (g.n+1)*g.pp)
	if a := testing.AllocsPerRun(10, func() { lump.Lump(1, pi, flow, mass) }); a != 0 {
		t.Fatalf("Lump allocates %v times", a)
	}
}

// plainSolve solves m with symmetric Gauss-Seidel alone, without the
// coarse step: the reference the coarse step is held to.
func plainSolve(t testing.TB, m NetworkModel, opts ctmc.Options) NetworkMetrics {
	t.Helper()
	maps := make([]*markov.MAP, len(m.Stations))
	for i, s := range m.Stations {
		maps[i] = s.MAP
	}
	g, err := newGenParams(m, maps)
	if err != nil {
		t.Fatal(err)
	}
	qt, err := assembleTranspose(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ctmc.SteadyStateTransposeCtx(context.Background(), qt, opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	met, err := collectMetricsN(m, maps, g.space, res)
	if err != nil {
		t.Fatal(err)
	}
	return met
}

// relErr is |got-want|/|want|.
func relErr(got, want float64) float64 { return math.Abs(got-want) / math.Abs(want) }

// TestK1CoarseStepSolvesChain: with one station the blocks (n_0, phase)
// are single states, so the lumped chain is the chain itself and the
// first coarse step solves it; the solve stops at its first residual
// check, on the dense LU answer.
func TestK1CoarseStepSolvesChain(t *testing.T) {
	mp, err := markov.ErlangRenewal(3, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	m := NetworkModel{Stations: []Station{{MAP: mp}}, ThinkTime: 1, Customers: 200}
	got, err := SolveNetwork(m, ctmc.Options{Tol: 1e-12})
	if err != nil {
		t.Fatal(err)
	}
	if got.States != 603 || got.SolverMethod != "aggregated-symmetric-gauss-seidel" || got.SolverIterations != 8 {
		t.Fatalf("%d states solved by %s in %d sweeps, want 603 by the coarse step in 8",
			got.States, got.SolverMethod, got.SolverIterations)
	}
	ref, err := SolveNetwork(m, ctmc.Options{DenseCutoff: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if e := relErr(got.Throughput, ref.Throughput); e > 1e-12 {
		t.Fatalf("X = %v, dense LU %v (rel %.2e)", got.Throughput, ref.Throughput, e)
	}
	for j, p := range ref.QueueDists[0] {
		if math.Abs(got.QueueDists[0][j]-p) > 1e-12 {
			t.Fatalf("P(%d jobs) = %v, dense LU %v", j, got.QueueDists[0][j], p)
		}
	}
}

// TestCoarseStepPhasesRunWhileIdle: under free-running idle phases the
// coarse step still converges, in fewer sweeps than plain symmetric
// Gauss-Seidel, to the plain solve's answer.
func TestCoarseStepPhasesRunWhileIdle(t *testing.T) {
	m := twoTier(fitMAP(t, 0.004, 40, 0.02), fitMAP(t, 0.005, 150, 0.04), 0.5, 40)
	m.PhasesRunWhileIdle = true
	got, err := SolveNetwork(m, ctmc.Options{Tol: 1e-12})
	if err != nil {
		t.Fatal(err)
	}
	ref := plainSolve(t, m, ctmc.Options{Tol: 1e-12})
	if got.SolverMethod != "aggregated-symmetric-gauss-seidel" || got.SolverIterations >= ref.SolverIterations {
		t.Fatalf("%s took %d sweeps, plain %d", got.SolverMethod, got.SolverIterations, ref.SolverIterations)
	}
	if e := relErr(got.Throughput, ref.Throughput); e > 1e-8 {
		t.Fatalf("X = %v, plain %v (rel %.2e)", got.Throughput, ref.Throughput, e)
	}
	for k := range ref.QueueLens {
		if e := relErr(got.QueueLens[k], ref.QueueLens[k]); e > 1e-7 {
			t.Fatalf("Q%d = %v, plain %v (rel %.2e)", k, got.QueueLens[k], ref.QueueLens[k], e)
		}
	}
}

// TestCoarseStallFallsBackToSweeps pins the chain on which the coarse
// steps of the two partitions pull against each other and would hold
// the residual at 40 times the tolerance forever: a fast front station
// before a db whose max-lag-1 MAP fit switches between a fast and a
// very slow phase, so the mass splits between a long front queue and a
// long db queue. The solve must drop the coarse step and converge by
// plain sweeps, on the answer of a tight plain solve.
func TestCoarseStallFallsBackToSweeps(t *testing.T) {
	fit, err := markov.FitThreePoint(0.0046, 280, 0.019, markov.FitOptions{Policy: markov.SelectMaxLag1})
	if err != nil {
		t.Fatal(err)
	}
	m := twoTier(markov.Poisson(1/0.0068), fit.MAP, 0.5, 150)
	got, err := SolveNetwork(m, ctmc.Options{Tol: 1e-7})
	if err != nil {
		t.Fatal(err)
	}
	ref := plainSolve(t, m, ctmc.Options{Tol: 1e-11})
	if e := relErr(got.Throughput, ref.Throughput); e > 1e-4 {
		t.Fatalf("X = %v, plain Tol=1e-11 solve %v (rel %.2e)", got.Throughput, ref.Throughput, e)
	}
}

// TestCoarseStepAccuracyOnGrid solves the K=2 cells of the paper's
// burstiness grid (examples/suite) at N = 100 and 150 at the suite's
// Tol 1e-8 and holds them to plain symmetric Gauss-Seidel at Tol 1e-13.
// Plain sweeps at Tol 1e-8 were off by up to 1.8e-4 in X and 1.7e-3 in
// a queue length on these cells; with the coarse step X must be within
// 2e-5 and every queue length within 1.7e-3.
func TestCoarseStepAccuracyOnGrid(t *testing.T) {
	if testing.Short() {
		t.Skip("eight reference solves at Tol 1e-13 take seconds")
	}
	front := fitMAP(t, 0.0068, 4, 0.021)
	for _, n := range []int{100, 150} {
		for _, dbI := range []float64{1, 4, 40, 400} {
			m := twoTier(front, fitMAP(t, 0.0046, dbI, 0.019), 0.5, n)
			t.Run(fmt.Sprintf("N=%d/I=%v", n, dbI), func(t *testing.T) {
				t.Parallel()
				got, err := SolveNetwork(m, ctmc.Options{Tol: 1e-8})
				if err != nil {
					t.Fatal(err)
				}
				ref := plainSolve(t, m, ctmc.Options{Tol: 1e-13})
				if e := relErr(got.Throughput, ref.Throughput); e > 2e-5 {
					t.Errorf("X = %v, reference %v (rel %.2e)", got.Throughput, ref.Throughput, e)
				}
				for k := range ref.QueueLens {
					if e := relErr(got.QueueLens[k], ref.QueueLens[k]); e > 1.7e-3 {
						t.Errorf("Q%d = %v, reference %v (rel %.2e)", k, got.QueueLens[k], ref.QueueLens[k], e)
					}
				}
			})
		}
	}
}
