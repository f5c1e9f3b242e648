package ctmc

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"repro/internal/matrix"
	"repro/internal/xrand"
)

// The reference solver below is the iterative ladder as it ran over a
// materialized *matrix.CSR before the compact RowBlock form: a per-row
// relax closure over the rows of the cached transpose, with the
// diagonal found inside each row by a column test, and the residual
// taken through CSR.VecMulTo. The compact kernels must reproduce it bit
// for bit; TestCompactKernelsMatchReference holds them to that.

// refScanRows hands fn the rows of m in ascending order.
func refScanRows(m *matrix.CSR, fn func(row int, cols []int, vals []float64)) {
	for r := 0; r < m.N; r++ {
		lo, hi := m.RowPtr[r], m.RowPtr[r+1]
		fn(r, m.ColIdx[lo:hi], m.Vals[lo:hi])
	}
}

// refScanRowsReverse hands fn the rows of m in descending order.
func refScanRowsReverse(m *matrix.CSR, fn func(row int, cols []int, vals []float64)) {
	for r := m.N - 1; r >= 0; r-- {
		lo, hi := m.RowPtr[r], m.RowPtr[r+1]
		fn(r, m.ColIdx[lo:hi], m.Vals[lo:hi])
	}
}

// refRelax is the Gauss-Seidel row update over an unsplit row of Q^T.
func refRelax(pi []float64, maxDelta *float64) func(i int, cols []int, vals []float64) {
	return func(i int, cols []int, vals []float64) {
		d, sum := 0.0, 0.0 // d = q_{ii} <= 0
		for k, j := range cols {
			if j == i {
				d = vals[k]
			} else {
				sum += vals[k] * pi[j]
			}
		}
		if d >= 0 {
			return
		}
		next := sum / (-d)
		if delta := math.Abs(next - pi[i]); delta > *maxDelta {
			*maxDelta = delta
		}
		pi[i] = next
	}
}

// refSteadyState is the reference ladder without levels: dense LU, or
// symmetric Gauss-Seidel from the first sweep.
func refSteadyState(q *matrix.CSR, opts Options) (Result, error) {
	opts = opts.withDefaults()
	qt := q.Transpose()
	scratch := make([]float64, q.N)
	residual := func(pi []float64) float64 {
		q.VecMulTo(scratch, pi)
		max := 0.0
		for _, x := range scratch {
			if a := math.Abs(x); a > max {
				max = a
			}
		}
		return max
	}
	if q.N <= opts.DenseCutoff {
		a := matrix.NewDense(q.N, q.N)
		refScanRows(qt, func(row int, cols []int, vals []float64) {
			for k, c := range cols {
				a.Set(row, c, vals[k])
			}
		})
		for j := 0; j < q.N; j++ {
			a.Set(q.N-1, j, 1)
		}
		b := make([]float64, q.N)
		b[q.N-1] = 1
		pi, err := matrix.Solve(a, b)
		if err != nil {
			return Result{}, err
		}
		cleanNegatives(pi)
		normalize(pi)
		return Result{Pi: pi, Residual: residual(pi), Method: "dense-lu"}, nil
	}
	scale := q.MaxAbsDiag()
	tol := opts.Tol * scale
	pi := initialVector(q.N, opts)
	var maxDelta float64
	sweep := refRelax(pi, &maxDelta)
	r := math.Inf(1)
	for it := 1; it <= opts.MaxIter; it++ {
		refScanRows(qt, sweep)
		refScanRowsReverse(qt, sweep)
		if it%checkEvery == 0 || it == opts.MaxIter {
			normalize(pi)
			if r = residual(pi); r <= tol {
				return finish(pi, 2*it, r, "symmetric-gauss-seidel"), nil
			}
		}
	}
	return Result{}, fmt.Errorf("%w: residual %.3g", ErrNoConvergence, r)
}

// randomGenerator draws an irreducible generator on n states: a ring
// with random rates keeps every state reachable, and extra random
// transitions (some landing on the ring's, which NewCSR sums) give the
// rows uneven lengths and sources on both sides of the diagonal.
func randomGenerator(src *xrand.Source, n, extra int) *matrix.CSR {
	var tr []matrix.Triplet
	out := make([]float64, n)
	add := func(i, j int, rate float64) {
		tr = append(tr, matrix.Triplet{Row: i, Col: j, Val: rate})
		out[i] += rate
	}
	for i := 0; i < n; i++ {
		add(i, (i+1)%n, 0.1+src.Float64())
		for e := src.Intn(extra + 1); e > 0; e-- {
			if j := src.Intn(n); j != i {
				add(i, j, 0.01+3*src.Float64())
			}
		}
	}
	for i := 0; i < n; i++ {
		tr = append(tr, matrix.Triplet{Row: i, Col: i, Val: -out[i]})
	}
	return matrix.NewCSR(n, tr)
}

// mapNetworkGenerator builds a closed network of a think stage and two
// queues whose services are slowly switching two-phase MMPPs — a small
// MAP queueing network. State (n1, n2, p1, p2) has n1+n2 <= n customers
// in service; the phases run freely. The slow phase switching makes it
// nearly decomposable, so plain sweeps converge slowly on it.
func mapNetworkGenerator(n int) *matrix.CSR {
	mu := [2][2]float64{{40, 0.4}, {25, 1.5}}
	sw := [2][2]float64{{0.02, 0.05}, {0.03, 0.01}}
	const think = 2.0
	index := map[[4]int]int{}
	var states [][4]int
	for n1 := 0; n1 <= n; n1++ {
		for n2 := 0; n1+n2 <= n; n2++ {
			for p := 0; p < 4; p++ {
				s := [4]int{n1, n2, p / 2, p % 2}
				index[s] = len(states)
				states = append(states, s)
			}
		}
	}
	var tr []matrix.Triplet
	for i, s := range states {
		out := 0.0
		add := func(t [4]int, rate float64) {
			tr = append(tr, matrix.Triplet{Row: i, Col: index[t], Val: rate})
			out += rate
		}
		n1, n2, p1, p2 := s[0], s[1], s[2], s[3]
		if thinking := n - n1 - n2; thinking > 0 {
			add([4]int{n1 + 1, n2, p1, p2}, float64(thinking)/think)
		}
		if n1 > 0 {
			add([4]int{n1 - 1, n2 + 1, p1, p2}, mu[0][p1])
		}
		if n2 > 0 {
			add([4]int{n1, n2 - 1, p1, p2}, mu[1][p2])
		}
		add([4]int{n1, n2, 1 - p1, p2}, sw[0][p1])
		add([4]int{n1, n2, p1, 1 - p2}, sw[1][p2])
		tr = append(tr, matrix.Triplet{Row: i, Col: i, Val: -out})
	}
	return matrix.NewCSR(len(states), tr)
}

// TestCompactKernelsMatchReference runs generators through the compact
// solver and the reference one and requires the same stationary vector
// bit for bit, with the same iteration count, residual and method —
// across the dense path and symmetric Gauss-Seidel.
func TestCompactKernelsMatchReference(t *testing.T) {
	type tcase struct {
		name string
		q    *matrix.CSR
		opts Options
	}
	cases := []tcase{
		{"mm1k dense", mm1kGenerator(1, 2, 300), Options{}},
		{"mm1k gauss-seidel", mm1kGenerator(3, 4, 2000), Options{}},
		{"mm1k warm", mm1kGenerator(1, 1.5, 700), Options{Initial: mm1kAnalytic(1, 1.4, 700)}},
		{"map network", mapNetworkGenerator(30), Options{Tol: 1e-9}},
	}
	src := xrand.New(17)
	for c := 0; c < 12; c++ {
		n := 40 + src.Intn(900)
		cases = append(cases, tcase{
			name: fmt.Sprintf("random %d n=%d", c, n),
			q:    randomGenerator(src, n, 1+src.Intn(6)),
			opts: Options{DenseCutoff: 1 + src.Intn(600)},
		})
	}
	methods := map[string]bool{}
	for _, tc := range cases {
		want, werr := refSteadyState(tc.q, tc.opts)
		got, gerr := SteadyState(tc.q, tc.opts)
		if (werr != nil) != (gerr != nil) || (werr != nil && errors.Is(werr, ErrNoConvergence) != errors.Is(gerr, ErrNoConvergence)) {
			t.Fatalf("%s: error %v, reference %v", tc.name, gerr, werr)
		}
		if werr != nil {
			continue
		}
		methods[want.Method] = true
		if got.Method != want.Method || got.Iterations != want.Iterations || got.Residual != want.Residual {
			t.Fatalf("%s: %s after %d sweeps, residual %v; reference %s after %d, %v", tc.name,
				got.Method, got.Iterations, got.Residual, want.Method, want.Iterations, want.Residual)
		}
		for i := range want.Pi {
			if math.Float64bits(got.Pi[i]) != math.Float64bits(want.Pi[i]) {
				t.Fatalf("%s (%s): pi[%d] = %v, reference %v", tc.name, want.Method, i, got.Pi[i], want.Pi[i])
			}
		}
	}
	for _, m := range []string{"dense-lu", "symmetric-gauss-seidel"} {
		if !methods[m] {
			t.Errorf("no case ended in %s (covered %v)", m, methods)
		}
	}
}

// TestCompactResidualMatchesCSR checks the residual product on its own:
// the compact Q^T, whose diagonal term joins each sum at its sorted
// position, must give CSR.VecMulTo's x*Q bit for bit on both the
// sequential and the parallel path.
func TestCompactResidualMatchesCSR(t *testing.T) {
	src := xrand.New(23)
	for _, n := range []int{3, 200, 9000} {
		q := randomGenerator(src, n, 5)
		qt, err := CompactTranspose(q)
		if err != nil {
			t.Fatal(err)
		}
		if qt.MaxAbsDiag() != q.MaxAbsDiag() {
			t.Fatalf("n=%d: MaxAbsDiag %v, CSR %v", n, qt.MaxAbsDiag(), q.MaxAbsDiag())
		}
		x := make([]float64, n)
		for i := range x {
			x[i] = src.Float64()
		}
		x[0] = 0
		want := make([]float64, n)
		got := make([]float64, n)
		q.VecMulTo(want, x)
		qt.VecMulTo(got, x)
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("n=%d: (x*Q)[%d] = %v, CSR %v", n, i, got[i], want[i])
			}
		}
	}
}
