package mapqn

import (
	"context"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/ctmc"
	"repro/internal/markov"
)

// randomMAP draws a service MAP of order 1, 2, or 3 with randomized
// rates so the property tests cover mixed phase counts.
func randomMAP(t *testing.T, rng *rand.Rand) *markov.MAP {
	t.Helper()
	switch rng.Intn(3) {
	case 0:
		return markov.Poisson(0.5 + 2*rng.Float64())
	case 1:
		m, err := markov.MMPP2(0.2+2*rng.Float64(), 3+4*rng.Float64(),
			0.05+rng.Float64(), 0.05+rng.Float64())
		if err != nil {
			t.Fatal(err)
		}
		return m
	default:
		m, err := markov.ErlangRenewal(3, 0.2+rng.Float64())
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
}

// TestMatrixFreeProductsBitIdentical is the backend-equivalence property
// test: over randomized networks (K in 1..4, N in 0..12, mixed phase
// counts, both idle semantics, think time zero and positive) the
// matrix-free VecMulTo must reproduce the materialized CSR product bit
// for bit, and the synthesized transpose rows — scanned forward and in
// reverse — must match CSR.Transpose entry for entry. Several cases
// cross the parallel-kernel threshold so both the sequential and
// fanned-out paths are exercised.
func TestMatrixFreeProductsBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ctx := context.Background()
	parallelCases := 0
	for k := 1; k <= 4; k++ {
		for _, n := range []int{0, 1, 4, 12} {
			if k == 4 && n == 12 && testing.Short() {
				continue
			}
			for _, idle := range []bool{false, true} {
				maps := make([]*markov.MAP, k)
				stations := make([]Station, k)
				for i := range maps {
					maps[i] = randomMAP(t, rng)
					stations[i] = Station{MAP: maps[i]}
				}
				z := 0.0
				if rng.Intn(2) == 1 {
					z = 0.5 + rng.Float64()
				}
				m := NetworkModel{Stations: stations, ThinkTime: z, Customers: n, PhasesRunWhileIdle: idle}
				g, err := newGenParams(m, maps)
				if err != nil {
					t.Fatal(err)
				}
				csr, err := g.assembleCSR(ctx)
				if err != nil {
					t.Fatal(err)
				}
				mf, err := newMatrixFreeGen(ctx, g)
				if err != nil {
					t.Fatal(err)
				}
				if mf.NNZ() != csr.NNZ() {
					t.Fatalf("K=%d N=%d idle=%v: matrix-free nnz %d, CSR %d", k, n, idle, mf.NNZ(), csr.NNZ())
				}
				if mf.Dim() != csr.Dim() {
					t.Fatalf("K=%d N=%d idle=%v: dim %d vs %d", k, n, idle, mf.Dim(), csr.Dim())
				}
				if mf.MaxAbsDiag() != csr.MaxAbsDiag() {
					t.Fatalf("K=%d N=%d idle=%v: MaxAbsDiag %v vs %v", k, n, idle, mf.MaxAbsDiag(), csr.MaxAbsDiag())
				}
				if mf.NNZ() >= 1<<15 {
					parallelCases++
				}
				x := make([]float64, g.size)
				for i := range x {
					x[i] = rng.Float64()
				}
				yc := make([]float64, g.size)
				ym := make([]float64, g.size)
				csr.VecMulTo(yc, x)
				mf.VecMulTo(ym, x)
				for i := range yc {
					if yc[i] != ym[i] {
						t.Fatalf("K=%d N=%d idle=%v: VecMulTo[%d] = %v (matrix-free) vs %v (CSR)", k, n, idle, i, ym[i], yc[i])
					}
				}
				tr := csr.Transpose()
				// Every transpose scan — forward and reverse, matrix-free
				// and CSR — must yield tr's rows entry for entry, each row
				// once, in its scan's order.
				scans := []struct {
					name string
					scan func(func(int, []int, []float64))
					rev  bool
				}{
					{"matrix-free ScanTranspose", mf.ScanTranspose, false},
					{"matrix-free ScanTransposeReverse", mf.ScanTransposeReverse, true},
					{"CSR ScanTransposeReverse", csr.ScanTransposeReverse, true},
				}
				for _, sc := range scans {
					next, step, end := 0, 1, g.size
					if sc.rev {
						next, step, end = g.size-1, -1, -1
					}
					sc.scan(func(row int, cols []int, vals []float64) {
						if row != next {
							t.Fatalf("K=%d N=%d idle=%v: %s row %d, want %d", k, n, idle, sc.name, row, next)
						}
						next += step
						lo, hi := tr.RowPtr[row], tr.RowPtr[row+1]
						if len(cols) != hi-lo {
							t.Fatalf("K=%d N=%d idle=%v: %s row %d has %d entries, want %d", k, n, idle, sc.name, row, len(cols), hi-lo)
						}
						for a := range cols {
							if cols[a] != tr.ColIdx[lo+a] || vals[a] != tr.Vals[lo+a] {
								t.Fatalf("K=%d N=%d idle=%v: %s row %d entry %d = (%d,%v), want (%d,%v)",
									k, n, idle, sc.name, row, a, cols[a], vals[a], tr.ColIdx[lo+a], tr.Vals[lo+a])
							}
						}
					})
					if next != end {
						t.Fatalf("K=%d N=%d idle=%v: %s stopped before row %d", k, n, idle, sc.name, next)
					}
				}
			}
		}
	}
	if !testing.Short() && parallelCases == 0 {
		t.Fatal("no randomized case crossed the parallel SpMV threshold; enlarge the grid")
	}
}

// TestRowEmitterSeekMatchesWalk checks the parallel-partitioning
// primitive: an emitter seeked into the middle of the enumeration must
// produce exactly the rows a from-the-start walk produces.
func TestRowEmitterSeekMatchesWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	maps := []*markov.MAP{randomMAP(t, rng), randomMAP(t, rng), randomMAP(t, rng)}
	m := NetworkModel{
		Stations:  []Station{{MAP: maps[0]}, {MAP: maps[1]}, {MAP: maps[2]}},
		ThinkTime: 0.7, Customers: 6,
	}
	g, err := newGenParams(m, maps)
	if err != nil {
		t.Fatal(err)
	}
	walk := newRowEmitter(g)
	var wCols, sCols []int
	var wVals, sVals []float64
	for row := 0; row < g.size; row++ {
		wCols, wVals = walk.emitRow(wCols[:0], wVals[:0])
		seeked := newRowEmitter(g)
		seeked.seek(row)
		sCols, sVals = seeked.emitRow(sCols[:0], sVals[:0])
		if len(wCols) != len(sCols) {
			t.Fatalf("row %d: walked %d entries, seeked %d", row, len(wCols), len(sCols))
		}
		for a := range wCols {
			if wCols[a] != sCols[a] || wVals[a] != sVals[a] {
				t.Fatalf("row %d entry %d: walked (%d,%v), seeked (%d,%v)",
					row, a, wCols[a], wVals[a], sCols[a], sVals[a])
			}
		}
		if walk.diag != seeked.diag {
			t.Fatalf("row %d: walked diag %v, seeked %v", row, walk.diag, seeked.diag)
		}
	}
}

// TestMatrixFreeSolveMatchesCSR is the end-to-end backend contract: the
// same network solved with Backend forced either way agrees to 1e-9
// relative throughput at Tol = 1e-12. Above DenseCutoff both backends
// run bit-identical iterations, so agreement is exact; the small
// instance pits the CSR dense-LU path against the matrix-free iterative
// path, where only tolerance-level agreement is available.
func TestMatrixFreeSolveMatchesCSR(t *testing.T) {
	front := fitMAP(t, 0.004, 40, 0.02)
	app := fitMAP(t, 0.005, 10, 0.02)
	db := fitMAP(t, 0.003, 25, 0.01)
	stations := []Station{
		{Name: "front", MAP: front},
		{Name: "app", MAP: app},
		{Name: "db", MAP: db},
	}
	for _, customers := range []int{3, 9} {
		model := NetworkModel{Stations: stations, ThinkTime: 0.5, Customers: customers}
		csr, err := SolveNetwork(model, ctmc.Options{Tol: 1e-12, Backend: ctmc.BackendCSR})
		if err != nil {
			t.Fatal(err)
		}
		mf, err := SolveNetwork(model, ctmc.Options{Tol: 1e-12, Backend: ctmc.BackendMatrixFree})
		if err != nil {
			t.Fatal(err)
		}
		if csr.SolverBackend != string(ctmc.BackendCSR) {
			t.Fatalf("CSR solve reports backend %q", csr.SolverBackend)
		}
		if mf.SolverBackend != string(ctmc.BackendMatrixFree) {
			t.Fatalf("matrix-free solve reports backend %q", mf.SolverBackend)
		}
		rel := func(name string, tol, got, want float64) {
			if math.Abs(got-want) > tol*math.Max(1, math.Abs(want)) {
				t.Errorf("N=%d: matrix-free %s = %v, CSR %v", customers, name, got, want)
			}
		}
		rel("X", 1e-9, mf.Throughput, csr.Throughput)
		rel("R", 1e-9, mf.ResponseTime, csr.ResponseTime)
		for s := range csr.Utils {
			rel("U", 1e-8, mf.Utils[s], csr.Utils[s])
			rel("Q", 1e-8, mf.QueueLens[s], csr.QueueLens[s])
		}
	}
}

// stalledGridCell is a cell of the examples/suite burstiness grid (db
// I=400): a MAP-modulated chain on which forward Gauss-Seidel stalls, so
// the solve ends in the symmetric stage.
func stalledGridCell(t testing.TB, customers int) NetworkModel {
	return twoTier(fitMAP(t, 0.0068, 4, 0.021), fitMAP(t, 0.0046, 400, 0.019), 0.5, customers)
}

// TestStalledChainEndsInSymmetricGaussSeidel pins the solver ladder on a
// chain whose forward sweep stalls: the solve converges in the symmetric
// stage, and its throughput agrees with a Tol=1e-12 solve to 1e-5.
func TestStalledChainEndsInSymmetricGaussSeidel(t *testing.T) {
	m := stalledGridCell(t, 50)
	got, err := SolveNetwork(m, ctmc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got.States != 5304 {
		t.Fatalf("states = %d, want 5304", got.States)
	}
	if got.SolverMethod != "symmetric-gauss-seidel" {
		t.Fatalf("method = %q after %d sweeps, want symmetric-gauss-seidel", got.SolverMethod, got.SolverIterations)
	}
	ref, err := SolveNetwork(m, ctmc.Options{Tol: 1e-12})
	if err != nil {
		t.Fatal(err)
	}
	if rel := math.Abs(got.Throughput-ref.Throughput) / ref.Throughput; rel > 1e-5 {
		t.Fatalf("X = %v, Tol=1e-12 solve %v (rel %.2e)", got.Throughput, ref.Throughput, rel)
	}
}

// TestSymmetricGaussSeidelBitIdenticalAcrossBackends forces a solve
// through the symmetric stage on both backends: the stored Q^T and the
// matrix-free reverse scan (which regenerates rows chunk by chunk) must
// yield the same stationary vector bit for bit.
func TestSymmetricGaussSeidelBitIdenticalAcrossBackends(t *testing.T) {
	m := stalledGridCell(t, 50)
	var pis [][]float64
	var iters []int
	for _, backend := range []ctmc.Backend{ctmc.BackendCSR, ctmc.BackendMatrixFree} {
		met, sol, err := solveNetwork(context.Background(), m, ctmc.Options{Tol: 1e-8, Backend: backend}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if met.SolverMethod != "symmetric-gauss-seidel" {
			t.Fatalf("%s: method = %q, want symmetric-gauss-seidel", backend, met.SolverMethod)
		}
		pis = append(pis, sol.pi)
		iters = append(iters, met.SolverIterations)
	}
	if iters[0] != iters[1] {
		t.Fatalf("sweeps: CSR %d, matrix-free %d", iters[0], iters[1])
	}
	for i := range pis[0] {
		if pis[0][i] != pis[1][i] {
			t.Fatalf("pi[%d]: CSR %v, matrix-free %v", i, pis[0][i], pis[1][i])
		}
	}
}

// BenchmarkSteadyStateNCD times the exact solve of the stalled grid
// cell above on both backends — a nearly-decomposable MAP network whose
// solve runs forward Gauss-Seidel into its plateau and finishes in the
// symmetric stage. Generator construction is included, as in a suite
// cell.
func BenchmarkSteadyStateNCD(b *testing.B) {
	m := stalledGridCell(b, 50)
	for _, backend := range []ctmc.Backend{ctmc.BackendCSR, ctmc.BackendMatrixFree} {
		b.Run(string(backend), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				met, err := SolveNetwork(m, ctmc.Options{Tol: 1e-8, Backend: backend})
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					b.ReportMetric(float64(met.States), "states")
					b.ReportMetric(float64(met.SolverIterations), "sweeps")
				}
			}
		})
	}
}

// TestMatrixFreeWarmSweepMatchesColdSolves re-runs the warm-start
// correctness contract under the matrix-free backend: warm-started sweep
// populations must match independent cold solves to 1e-9 relative
// throughput, so the embedPi seeding works unchanged on top of the new
// operator.
func TestMatrixFreeWarmSweepMatchesColdSolves(t *testing.T) {
	front := fitMAP(t, 0.004, 40, 0.02)
	db := fitMAP(t, 0.003, 25, 0.01)
	stations := []Station{
		{Name: "front", MAP: front},
		{Name: "db", MAP: db},
	}
	opts := ctmc.Options{Tol: 1e-12, Backend: ctmc.BackendMatrixFree}
	populations := []int{6, 20, 30, 25} // mixes dense-LU (small) and iterative (large) solves
	warm, err := SolveNetworkSweep(stations, 0.5, populations, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i, n := range populations {
		cold, err := SolveNetwork(NetworkModel{Stations: stations, ThinkTime: 0.5, Customers: n}, opts)
		if err != nil {
			t.Fatal(err)
		}
		if warm[i].SolverBackend != string(ctmc.BackendMatrixFree) {
			t.Fatalf("N=%d: sweep reports backend %q", n, warm[i].SolverBackend)
		}
		if math.Abs(warm[i].Throughput-cold.Throughput) > 1e-9*math.Max(1, cold.Throughput) {
			t.Errorf("N=%d: warm X = %v, cold %v", n, warm[i].Throughput, cold.Throughput)
		}
	}
}

// TestK4MatrixFreeMatchesCSRAndBounds is the acceptance check for the
// ceiling lift: a four-tier network solved exactly under the matrix-free
// backend must agree with the CSR path to 1e-9 relative throughput and
// sit inside the NetworkBounds bracket. The larger population is solved
// matrix-free only — the regime the backend exists for — and checked
// against the bounds bracket (its CSR twin at equal size is covered by
// the bit-identity property test above).
func TestK4MatrixFreeMatchesCSRAndBounds(t *testing.T) {
	stations := []Station{
		{Name: "lb", MAP: fitMAP(t, 0.002, 4, 0.008)},
		{Name: "web", MAP: fitMAP(t, 0.004, 10, 0.015)},
		{Name: "app", MAP: fitMAP(t, 0.005, 8, 0.02)},
		{Name: "db", MAP: fitMAP(t, 0.003, 25, 0.01)},
	}
	// Above DenseCutoff the two backends run bit-identical iterations, so
	// their agreement is exact at any tolerance; 1e-8 keeps the bursty
	// chain's solve time test-friendly.
	model := NetworkModel{Stations: stations, ThinkTime: 0.5, Customers: 8}
	csr, err := SolveNetwork(model, ctmc.Options{Tol: 1e-8, Backend: ctmc.BackendCSR})
	if err != nil {
		t.Fatal(err)
	}
	mf, err := SolveNetwork(model, ctmc.Options{Tol: 1e-8, Backend: ctmc.BackendMatrixFree})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(mf.Throughput-csr.Throughput) > 1e-9*csr.Throughput {
		t.Fatalf("K=4 N=8: matrix-free X = %v, CSR %v", mf.Throughput, csr.Throughput)
	}
	checkBracket := func(met NetworkMetrics, m NetworkModel) {
		b, err := NetworkBounds(m)
		if err != nil {
			t.Fatal(err)
		}
		slack := 1e-9 * b.UpperX
		if met.Throughput < b.LowerX-slack || met.Throughput > b.UpperX+slack {
			t.Fatalf("N=%d: X = %v outside bounds [%v, %v]", m.Customers, met.Throughput, b.LowerX, b.UpperX)
		}
	}
	checkBracket(mf, model)
	if testing.Short() {
		return
	}
	big := NetworkModel{Stations: stations, ThinkTime: 0.5, Customers: 12}
	met, err := SolveNetwork(big, ctmc.Options{Tol: 1e-8, Backend: ctmc.BackendMatrixFree})
	if err != nil {
		t.Fatal(err)
	}
	if met.States != 29120 {
		t.Fatalf("K=4 N=12 has %d states, expected 29120", met.States)
	}
	checkBracket(met, big)
}

// TestResolveBackend pins the auto-selection and limit logic: CSR below
// the threshold, matrix-free above it, explicit choices and MaxStates
// honored, unknown backends rejected.
func TestResolveBackend(t *testing.T) {
	cases := []struct {
		opts    ctmc.Options
		size    int
		backend ctmc.Backend
		limit   int
		wantErr bool
	}{
		{opts: ctmc.Options{}, size: 1000, backend: ctmc.BackendCSR, limit: csrDefaultMaxStates},
		{opts: ctmc.Options{}, size: autoMatrixFreeThreshold, backend: ctmc.BackendCSR, limit: csrDefaultMaxStates},
		{opts: ctmc.Options{}, size: autoMatrixFreeThreshold + 1, backend: ctmc.BackendMatrixFree, limit: matrixFreeDefaultMaxStates},
		{opts: ctmc.Options{Backend: ctmc.BackendCSR}, size: 5_000_000, backend: ctmc.BackendCSR, limit: csrDefaultMaxStates},
		{opts: ctmc.Options{Backend: ctmc.BackendMatrixFree}, size: 10, backend: ctmc.BackendMatrixFree, limit: matrixFreeDefaultMaxStates},
		{opts: ctmc.Options{MaxStates: 123}, size: 10, backend: ctmc.BackendCSR, limit: 123},
		{opts: ctmc.Options{Backend: "sparse-lu"}, size: 10, wantErr: true},
	}
	for i, c := range cases {
		backend, limit, err := resolveBackend(c.opts, c.size)
		if c.wantErr {
			if err == nil {
				t.Fatalf("case %d: expected error", i)
			}
			continue
		}
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if backend != c.backend || limit != c.limit {
			t.Fatalf("case %d: got (%s, %d), want (%s, %d)", i, backend, limit, c.backend, c.limit)
		}
	}
}

// TestStateLimitError pins the pre-OOM failure mode: exceeding the
// backend's state budget must fail fast with an error naming the state
// count and pointing at the matrix-free and NetworkBounds alternatives —
// not exhaust memory, and not wait for int overflow.
func TestStateLimitError(t *testing.T) {
	front := fitMAP(t, 0.004, 40, 0.02)
	db := fitMAP(t, 0.003, 25, 0.01)
	model := NetworkModel{
		Stations:  []Station{{Name: "front", MAP: front}, {Name: "db", MAP: db}},
		ThinkTime: 0.5, Customers: 50, // 1326 compositions x 4 phases = 5304 states
	}
	_, err := SolveNetwork(model, ctmc.Options{MaxStates: 1000})
	if err == nil {
		t.Fatal("expected a state-limit error")
	}
	for _, want := range []string{"5304", "matrix-free", "NetworkBounds", "1000"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("limit error %q does not mention %q", err, want)
		}
	}
	_, err = SolveNetwork(model, ctmc.Options{MaxStates: 1000, Backend: ctmc.BackendMatrixFree})
	if err == nil {
		t.Fatal("expected a state-limit error under the matrix-free backend")
	}
	for _, want := range []string{"5304", "NetworkBounds", "MaxStates"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("matrix-free limit error %q does not mention %q", err, want)
		}
	}
}
