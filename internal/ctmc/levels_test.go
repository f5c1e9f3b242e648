package ctmc

import (
	"context"
	"math"
	"testing"

	"repro/internal/matrix"
	"repro/internal/xrand"
)

// qtLumping lumps a chain by reading the flows off its stored Q^T, one
// scattered add per off-diagonal: the definition of Lumping.Lump, which
// a model's own lumping must reproduce.
type qtLumping struct {
	qt    *RowBlock
	parts []Levels
	calls int
}

func (l *qtLumping) Partitions() []Levels { return l.parts }

func (l *qtLumping) Lump(k int, pi, flow, mass []float64) {
	l.calls++
	p := l.parts[k]
	w := p.Width
	for i := range l.qt.Diag {
		lc, ph := int(p.Level[i/w]), i%w
		mass[lc*w+ph] += pi[i]
		for a := l.qt.Ptr[i]; a < l.qt.Ptr[i+1]; a++ {
			j := int(l.qt.Cols[a])
			lj := int(p.Level[j/w])
			flow[((3*lj+lc-lj+1)*w+j%w)*w+ph] += l.qt.Vals[a] * pi[j]
		}
	}
}

// mapNetworkLumping partitions mapNetworkGenerator(n) by each queue:
// its states come in groups of four phases per (n1, n2).
func mapNetworkLumping(qt *RowBlock, n int) *qtLumping {
	var byN1, byN2 []int32
	for n1 := 0; n1 <= n; n1++ {
		for n2 := 0; n1+n2 <= n; n2++ {
			byN1 = append(byN1, int32(n1))
			byN2 = append(byN2, int32(n2))
		}
	}
	return &qtLumping{qt: qt, parts: []Levels{{Width: 4, Level: byN1}, {Width: 4, Level: byN2}}}
}

// blockTridiagonal draws an irreducible generator on `levels` levels of
// w phases in the layout of Lumping.Lump: random non-negative blocks to
// the same level and the ones beside it, each with a positive diagonal
// to the neighbours and a positive cycle through the phases, so every
// block reaches every other. rate draws one random rate.
func blockTridiagonal(w, levels int, rate func() float64) []float64 {
	ww := w * w
	gen := make([]float64, 3*levels*ww)
	for l := 0; l < levels; l++ {
		for r := 0; r < 3; r++ {
			if (l == 0 && r == 0) || (l == levels-1 && r == 2) {
				continue
			}
			blk := gen[(3*l+r)*ww : (3*l+r+1)*ww]
			for k := range blk {
				blk[k] = rate()
			}
			for p := 0; p < w; p++ {
				switch r {
				case 1:
					blk[p*w+(p+1)%w] += 0.1
				default:
					blk[p*w+p] += 0.1
				}
			}
		}
	}
	mass := make([]float64, levels*w)
	for i := range mass {
		mass[i] = 1
	}
	toGenerator(gen, mass, w)
	return gen
}

// denseLevels solves the generator of blockTridiagonal by dense LU
// through the ladder's dense path, as a full CSR matrix.
func denseLevels(t testing.TB, gen []float64, w, levels int) []float64 {
	t.Helper()
	n := levels * w
	var tr []matrix.Triplet
	for l := 0; l < levels; l++ {
		for r := 0; r < 3; r++ {
			dst := l + r - 1
			if dst < 0 || dst >= levels {
				continue
			}
			for p := 0; p < w; p++ {
				for q := 0; q < w; q++ {
					if v := gen[((3*l+r)*w+p)*w+q]; v != 0 {
						tr = append(tr, matrix.Triplet{Row: l*w + p, Col: dst*w + q, Val: v})
					}
				}
			}
		}
	}
	res, err := SteadyState(matrix.NewCSR(n, tr), Options{DenseCutoff: n})
	if err != nil {
		t.Fatal(err)
	}
	return res.Pi
}

// reduceLevels runs level reduction on a copy of gen.
func reduceLevels(gen []float64, w, levels int) ([]float64, bool) {
	c := &coarse{
		m: make([]float64, w*w), next: make([]float64, w*w), rhs: make([]float64, w),
		lu: new(matrix.LU),
	}
	x := make([]float64, levels*w)
	ok := c.reduce(append([]float64(nil), gen...), w, levels, x)
	return x, ok
}

// logRate returns a rate draw: zero one time in four, otherwise
// log-uniform over the given decades around 1.
func logRate(src *xrand.Source, decades float64) func() float64 {
	return func() float64 {
		if src.Intn(4) == 0 {
			return 0
		}
		return math.Pow(10, decades*(src.Float64()-0.5))
	}
}

// denseGenerator expands a generator in the layout of Lumping.Lump to a
// dense matrix.
func denseGenerator(gen []float64, w, levels int) [][]float64 {
	n := w * levels
	dense := make([][]float64, n)
	for i := range dense {
		dense[i] = make([]float64, n)
	}
	for l := 0; l < levels; l++ {
		for r := max(0, 1-l); r < 3 && l+r-1 < levels; r++ {
			for p := 0; p < w; p++ {
				for q := 0; q < w; q++ {
					dense[l*w+p][(l+r-1)*w+q] = gen[((3*l+r)*w+p)*w+q]
				}
			}
		}
	}
	return dense
}

// gthStationary solves x*G = 0 for the generator g, given densely, by
// the Grassmann-Taksar-Heyman elimination: it censors the states from
// the last down and divides by sums of non-negative rates only, never
// subtracting, which makes every entry accurate to a few ulps.
func gthStationary(g [][]float64) []float64 {
	n := len(g)
	a := make([][]float64, n)
	for i := range g {
		a[i] = append([]float64(nil), g[i]...)
	}
	out := make([]float64, n)
	for k := n - 1; k > 0; k-- {
		for j := 0; j < k; j++ {
			out[k] += a[k][j]
		}
		for i := 0; i < k; i++ {
			for j := 0; j < k; j++ {
				if i != j {
					a[i][j] += a[i][k] * a[k][j] / out[k]
				}
			}
		}
	}
	x := make([]float64, n)
	x[0] = 1
	total := 1.0
	for k := 1; k < n; k++ {
		for i := 0; i < k; i++ {
			x[k] += x[i] * a[i][k]
		}
		x[k] /= out[k]
		total += x[k]
	}
	for i := range x {
		x[i] /= total
	}
	return x
}

// maxRelErr returns the largest relative error of got against want.
func maxRelErr(got, want []float64) float64 {
	e := 0.0
	for i := range want {
		e = max(e, math.Abs(got[i]-want[i])/want[i])
	}
	return e
}

// TestReduceMatchesDenseLU holds level reduction to the dense LU solve
// of the same block tridiagonal generator within 1e-12, over random
// generators of one to six phases per level and one to sixty levels,
// rates spread over two decades. Where the two differ by more, dense LU
// must be the one farther from the GTH solve: its cancellations cost
// it up to a few 1e-12 on these chains.
func TestReduceMatchesDenseLU(t *testing.T) {
	src := xrand.New(5)
	for c := 0; c < 200; c++ {
		w, levels := 1+src.Intn(6), 1+src.Intn(60)
		gen := blockTridiagonal(w, levels, logRate(src, 2))
		want := denseLevels(t, gen, w, levels)
		got, ok := reduceLevels(gen, w, levels)
		if !ok {
			t.Fatalf("case %d (w=%d, %d levels): level reduction failed", c, w, levels)
		}
		for i := range want {
			if math.Abs(got[i]-want[i]) <= 1e-12 {
				continue
			}
			exact := gthStationary(denseGenerator(gen, w, levels))
			if maxRelErr(got, exact) >= maxRelErr(want, exact) {
				t.Fatalf("case %d (w=%d, %d levels): x[%d] = %v, dense LU %v, GTH %v", c, w, levels, i, got[i], want[i], exact[i])
			}
			break
		}
	}
}

// TestReduceMatchesGTH holds level reduction to a GTH solve within
// 1e-9 relative in every entry, on up to forty levels with rates
// spread over eight decades, where dense LU strays by up to 1e-4.
func TestReduceMatchesGTH(t *testing.T) {
	src := xrand.New(9)
	for c := 0; c < 100; c++ {
		w, levels := 1+src.Intn(5), 1+src.Intn(40)
		gen := blockTridiagonal(w, levels, logRate(src, 8))
		want := gthStationary(denseGenerator(gen, w, levels))
		got, ok := reduceLevels(gen, w, levels)
		if !ok {
			t.Fatalf("case %d (w=%d, %d levels): level reduction failed", c, w, levels)
		}
		if e := maxRelErr(got, want); e > 1e-9 {
			t.Fatalf("case %d (w=%d, %d levels): relative error %.3g against GTH", c, w, levels, e)
		}
	}
}

// FuzzReduceMatchesDenseLU drives level reduction with generators read
// from the fuzzer's bytes: whenever both solves succeed they must agree,
// and level reduction must never return anything but a probability
// vector or a failure.
func FuzzReduceMatchesDenseLU(f *testing.F) {
	f.Add(uint8(2), uint8(3), []byte{1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add(uint8(1), uint8(1), []byte{})
	f.Add(uint8(4), uint8(7), []byte{0, 255, 0, 255, 17, 3})
	f.Fuzz(func(t *testing.T, wb, lb uint8, rates []byte) {
		w, levels := 1+int(wb%5), 1+int(lb%12)
		k := 0
		gen := blockTridiagonal(w, levels, func() float64 {
			if len(rates) == 0 {
				return 0
			}
			b := rates[k%len(rates)]
			k++
			return float64(b) / 16
		})
		got, ok := reduceLevels(gen, w, levels)
		if !ok {
			return
		}
		sum := 0.0
		for _, v := range got {
			if !(v >= 0) || math.IsInf(v, 0) {
				t.Fatalf("reduce returned %v", got)
			}
			sum += v
		}
		if math.Abs(sum-1) > 1e-12 {
			t.Fatalf("reduce returned mass %v", sum)
		}
		want := denseLevels(t, gen, w, levels)
		for i := range want {
			if math.Abs(got[i]-want[i]) > 1e-10 {
				t.Fatalf("w=%d, %d levels: x[%d] = %v, dense LU %v", w, levels, i, got[i], want[i])
			}
		}
	})
}

// TestAggregatedSolveMatchesPlain solves the MAP network chain with and
// without its per-queue partitions at Tol 1e-13: the coarse steps must
// cut the sweeps at least fourfold and land within 1e-10 of the dense
// LU solve, no farther than the plain sweeps land.
func TestAggregatedSolveMatchesPlain(t *testing.T) {
	const n = 30
	q := mapNetworkGenerator(n)
	ref, err := SteadyState(q, Options{DenseCutoff: q.N})
	if err != nil {
		t.Fatal(err)
	}
	qt, err := CompactTranspose(q)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Tol: 1e-13}
	plain, err := SteadyStateTransposeCtx(context.Background(), qt, opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := SteadyStateTransposeCtx(context.Background(), qt, opts, mapNetworkLumping(qt, n))
	if err != nil {
		t.Fatal(err)
	}
	if got.Method != "aggregated-symmetric-gauss-seidel" || plain.Method != "symmetric-gauss-seidel" {
		t.Fatalf("methods %q and %q", got.Method, plain.Method)
	}
	if 4*got.Iterations > plain.Iterations {
		t.Fatalf("%d sweeps with the coarse step, %d without", got.Iterations, plain.Iterations)
	}
	var errGot, errPlain float64
	for i := range ref.Pi {
		errGot = max(errGot, math.Abs(got.Pi[i]-ref.Pi[i]))
		errPlain = max(errPlain, math.Abs(plain.Pi[i]-ref.Pi[i]))
	}
	if errGot > 1e-10 || errGot > errPlain {
		t.Fatalf("off the dense LU solve by %.3g with the coarse step, %.3g without", errGot, errPlain)
	}
}

// TestCoarseStepSkipsZeroMass: a block without mass, as a warm start
// from a smaller population leaves, skips that coarse step and leaves pi
// untouched, and the solve still converges once the sweeps have spread
// mass into the block.
func TestCoarseStepSkipsZeroMass(t *testing.T) {
	const n = 20
	qt, err := CompactTranspose(mapNetworkGenerator(n))
	if err != nil {
		t.Fatal(err)
	}
	lump := mapNetworkLumping(qt, n)
	agg, err := newCoarse(lump, qt.Dim())
	if err != nil {
		t.Fatal(err)
	}
	pi := initialVector(qt.Dim(), Options{})
	for g, l := range lump.parts[0].Level {
		if l == n {
			clear(pi[4*g : 4*g+4]) // the top level of the n1 partition
		}
	}
	keep := append([]float64(nil), pi...)
	if agg.step(pi, 1) {
		t.Fatal("coarse step taken over an empty block")
	}
	for i := range pi {
		if pi[i] != keep[i] {
			t.Fatalf("skipped step changed pi[%d]", i)
		}
	}
	res, err := SteadyStateTransposeCtx(context.Background(), qt, Options{Tol: 1e-10, Initial: keep}, lump)
	if err != nil {
		t.Fatal(err)
	}
	if res.Method != "aggregated-symmetric-gauss-seidel" {
		t.Fatalf("method %q", res.Method)
	}
}

// cancelingLumping cancels its context on its first coarse step.
type cancelingLumping struct {
	*qtLumping
	cancel context.CancelFunc
}

func (l cancelingLumping) Lump(k int, pi, flow, mass []float64) {
	l.cancel()
	l.qtLumping.Lump(k, pi, flow, mass)
}

// TestCoarseSolveCanceledWithinOneIteration: a context canceled during
// the first coarse step stops the solve before the second.
func TestCoarseSolveCanceledWithinOneIteration(t *testing.T) {
	const n = 30
	qt, err := CompactTranspose(mapNetworkGenerator(n))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	lump := mapNetworkLumping(qt, n)
	_, err = SteadyStateTransposeCtx(ctx, qt, Options{}, cancelingLumping{lump, cancel})
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if lump.calls != 1 {
		t.Fatalf("%d coarse steps ran, want 1", lump.calls)
	}
}

// TestLevelsValidation rejects partitions that do not cover the chain.
func TestLevelsValidation(t *testing.T) {
	qt, err := CompactTranspose(mapNetworkGenerator(30))
	if err != nil {
		t.Fatal(err)
	}
	for _, parts := range [][]Levels{
		{{Width: 4, Level: make([]int32, 10)}},
		{{Width: 0}},
		{{Width: qt.Dim(), Level: []int32{-1}}},
	} {
		if _, err := SteadyStateTransposeCtx(context.Background(), qt, Options{}, &qtLumping{qt: qt, parts: parts}); err == nil {
			t.Errorf("partitions %v accepted", parts)
		}
	}
}

// TestCoarseStepAllocatesNothing: the coarse step reuses its workspace,
// so with a lumping that allocates nothing it allocates nothing.
func TestCoarseStepAllocatesNothing(t *testing.T) {
	const n = 20
	qt, err := CompactTranspose(mapNetworkGenerator(n))
	if err != nil {
		t.Fatal(err)
	}
	agg, err := newCoarse(mapNetworkLumping(qt, n), qt.Dim())
	if err != nil {
		t.Fatal(err)
	}
	pi := initialVector(qt.Dim(), Options{})
	it := 0
	if a := testing.AllocsPerRun(10, func() {
		it++
		if !agg.step(pi, it) {
			t.Fatalf("coarse step %d skipped", it)
		}
	}); a != 0 {
		t.Fatalf("coarse step allocates %v times", a)
	}
}
