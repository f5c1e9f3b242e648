package matrix

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func denseAlmostEqual(a, b *Dense, tol float64) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	for i := range a.Data {
		if math.Abs(a.Data[i]-b.Data[i]) > tol {
			return false
		}
	}
	return true
}

func randomDense(rng *rand.Rand, n int) *Dense {
	m := NewDense(n, n)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

func TestMulIdentity(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	if !denseAlmostEqual(a.Mul(Identity(2)), a, 0) {
		t.Error("A*I != A")
	}
	if !denseAlmostEqual(Identity(2).Mul(a), a, 0) {
		t.Error("I*A != A")
	}
}

func TestMulKnown(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	b := FromRows([][]float64{{5, 6}, {7, 8}})
	want := FromRows([][]float64{{19, 22}, {43, 50}})
	if !denseAlmostEqual(a.Mul(b), want, 1e-12) {
		t.Errorf("Mul = \n%v want \n%v", a.Mul(b), want)
	}
}

func TestMulVecAndVecMul(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	got := a.MulVec([]float64{1, 1})
	if got[0] != 3 || got[1] != 7 {
		t.Errorf("MulVec = %v, want [3 7]", got)
	}
	got = a.VecMul([]float64{1, 1})
	if got[0] != 4 || got[1] != 6 {
		t.Errorf("VecMul = %v, want [4 6]", got)
	}
}

func TestSolveKnown(t *testing.T) {
	a := FromRows([][]float64{{2, 1}, {1, 3}})
	x, err := Solve(a, []float64{3, 5})
	if err != nil {
		t.Fatal(err)
	}
	// 2x + y = 3, x + 3y = 5 -> x = 4/5, y = 7/5.
	if math.Abs(x[0]-0.8) > 1e-12 || math.Abs(x[1]-1.4) > 1e-12 {
		t.Errorf("Solve = %v, want [0.8 1.4]", x)
	}
}

func TestSolveSingular(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {2, 4}})
	if _, err := Solve(a, []float64{1, 2}); err == nil {
		t.Error("expected ErrSingular")
	}
}

func TestSolveNeedsPivoting(t *testing.T) {
	// Zero top-left pivot forces a row exchange.
	a := FromRows([][]float64{{0, 1}, {1, 0}})
	x, err := Solve(a, []float64{2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if x[0] != 3 || x[1] != 2 {
		t.Errorf("Solve = %v, want [3 2]", x)
	}
}

func TestDet(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	f, err := Factor(a)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(f.Det()-(-2)) > 1e-12 {
		t.Errorf("Det = %v, want -2", f.Det())
	}
}

func TestInverseKnown(t *testing.T) {
	a := FromRows([][]float64{{4, 7}, {2, 6}})
	inv, err := Inverse(a)
	if err != nil {
		t.Fatal(err)
	}
	want := FromRows([][]float64{{0.6, -0.7}, {-0.2, 0.4}})
	if !denseAlmostEqual(inv, want, 1e-12) {
		t.Errorf("Inverse = \n%v want \n%v", inv, want)
	}
}

// Property: A * A^{-1} = I for random well-conditioned matrices.
func TestPropInverseRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(8)
		a := randomDense(rng, n)
		// Diagonally dominate to guarantee conditioning.
		for i := 0; i < n; i++ {
			a.Set(i, i, a.At(i, i)+float64(n)+1)
		}
		inv, err := Inverse(a)
		if err != nil {
			return false
		}
		return denseAlmostEqual(a.Mul(inv), Identity(n), 1e-8)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: Solve satisfies A*x = b.
func TestPropSolveResidual(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(10)
		a := randomDense(rng, n)
		for i := 0; i < n; i++ {
			a.Set(i, i, a.At(i, i)+float64(n)+1)
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		x, err := Solve(a, b)
		if err != nil {
			return false
		}
		r := a.MulVec(x)
		for i := range r {
			if math.Abs(r[i]-b[i]) > 1e-8 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestExpmZeroIsIdentity(t *testing.T) {
	if !denseAlmostEqual(expm(NewDense(3, 3)), Identity(3), 1e-14) {
		t.Error("expm(0) != I")
	}
}

func TestExpmDiagonal(t *testing.T) {
	a := FromRows([][]float64{{1, 0}, {0, -2}})
	e := expm(a)
	if math.Abs(e.At(0, 0)-math.E) > 1e-10 {
		t.Errorf("expm diag (0,0) = %v, want e", e.At(0, 0))
	}
	if math.Abs(e.At(1, 1)-math.Exp(-2)) > 1e-10 {
		t.Errorf("expm diag (1,1) = %v, want e^-2", e.At(1, 1))
	}
	if math.Abs(e.At(0, 1)) > 1e-12 || math.Abs(e.At(1, 0)) > 1e-12 {
		t.Error("expm of diagonal should be diagonal")
	}
}

func TestExpmNilpotent(t *testing.T) {
	// A = [[0,1],[0,0]] -> e^A = [[1,1],[0,1]] exactly.
	a := FromRows([][]float64{{0, 1}, {0, 0}})
	want := FromRows([][]float64{{1, 1}, {0, 1}})
	if !denseAlmostEqual(expm(a), want, 1e-12) {
		t.Errorf("expm nilpotent = \n%v", expm(a))
	}
}

func TestExpmGeneratorRowSums(t *testing.T) {
	// e^{Qt} of a CTMC generator is stochastic: rows sum to 1.
	q := FromRows([][]float64{{-3, 2, 1}, {4, -5, 1}, {0.5, 0.5, -1}})
	p := expm(q.Scale(0.7))
	for i, s := range p.RowSums() {
		if math.Abs(s-1) > 1e-10 {
			t.Errorf("row %d of e^Q sums to %v, want 1", i, s)
		}
	}
	for _, v := range p.Data {
		if v < -1e-12 {
			t.Errorf("e^Q has negative entry %v", v)
		}
	}
}

// Property: e^{A} * e^{-A} = I.
func TestPropExpmInverse(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(5)
		a := randomDense(rng, n)
		prod := expm(a).Mul(expm(a.Scale(-1)))
		return denseAlmostEqual(prod, Identity(n), 1e-7)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestTransposeRoundTrip(t *testing.T) {
	a := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	if !denseAlmostEqual(a.Transpose().Transpose(), a, 0) {
		t.Error("double transpose should round-trip")
	}
	if a.Transpose().At(2, 1) != 6 {
		t.Error("transpose misplaced entry")
	}
}

func TestAddSubScale(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	b := FromRows([][]float64{{4, 3}, {2, 1}})
	if got := a.Add(b); got.At(0, 0) != 5 || got.At(1, 1) != 5 {
		t.Errorf("Add = %v", got)
	}
	if got := a.Sub(b); got.At(0, 0) != -3 || got.At(1, 1) != 3 {
		t.Errorf("Sub = %v", got)
	}
	if got := a.Scale(2); got.At(1, 0) != 6 {
		t.Errorf("Scale = %v", got)
	}
}

func TestCSRAssemblyAndAt(t *testing.T) {
	m := NewCSR(3, []Triplet{
		{0, 0, 1}, {0, 2, 2}, {1, 1, 3}, {2, 0, 4}, {2, 2, 5},
		{0, 2, 0.5}, // duplicate, must sum with the first (0,2)
	})
	if m.NNZ() != 5 {
		t.Errorf("NNZ = %d, want 5", m.NNZ())
	}
	if m.At(0, 2) != 2.5 {
		t.Errorf("At(0,2) = %v, want 2.5 (summed duplicate)", m.At(0, 2))
	}
	if m.At(1, 0) != 0 {
		t.Errorf("At(1,0) = %v, want 0", m.At(1, 0))
	}
	if m.Diag(1) != 3 || m.Diag(0) != 1 {
		t.Error("Diag lookup wrong")
	}
}

func TestCSRMulVecMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	n := 20
	var entries []Triplet
	d := NewDense(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if rng.Float64() < 0.2 {
				v := rng.NormFloat64()
				entries = append(entries, Triplet{i, j, v})
				d.Set(i, j, v)
			}
		}
	}
	m := NewCSR(n, entries)
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	gotA := m.MulVec(x)
	wantA := d.MulVec(x)
	gotB := make([]float64, n)
	m.VecMulTo(gotB, x)
	wantB := d.VecMul(x)
	for i := 0; i < n; i++ {
		if math.Abs(gotA[i]-wantA[i]) > 1e-12 {
			t.Fatalf("MulVec[%d] = %v, want %v", i, gotA[i], wantA[i])
		}
		if math.Abs(gotB[i]-wantB[i]) > 1e-12 {
			t.Fatalf("VecMul[%d] = %v, want %v", i, gotB[i], wantB[i])
		}
	}
}

func TestCSRTranspose(t *testing.T) {
	m := NewCSR(2, []Triplet{{0, 1, 5}, {1, 0, 7}})
	mt := m.Transpose()
	if mt.At(1, 0) != 5 || mt.At(0, 1) != 7 {
		t.Error("CSR transpose misplaced entries")
	}
}

func TestCSRRowSumsAndDiag(t *testing.T) {
	m := NewCSR(2, []Triplet{{0, 0, -3}, {0, 1, 3}, {1, 0, 2}, {1, 1, -2}})
	sums := m.RowSums()
	if math.Abs(sums[0]) > 1e-15 || math.Abs(sums[1]) > 1e-15 {
		t.Errorf("generator row sums = %v, want zeros", sums)
	}
	if m.MaxAbsDiag() != 3 {
		t.Errorf("MaxAbsDiag = %v, want 3", m.MaxAbsDiag())
	}
}

func TestCSRPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for out-of-range triplet")
		}
	}()
	NewCSR(2, []Triplet{{0, 5, 1}})
}

// factorSolveInverse is the column-by-column inverse InverseTo replaced:
// one Factor, then one allocating LU.Solve per unit vector.
func factorSolveInverse(a *Dense) (*Dense, error) {
	f, err := Factor(a)
	if err != nil {
		return nil, err
	}
	n := a.Rows
	inv := NewDense(n, n)
	for j := 0; j < n; j++ {
		e := make([]float64, n)
		e[j] = 1
		col, err := f.Solve(e)
		if err != nil {
			return nil, err
		}
		for i, v := range col {
			inv.Set(i, j, v)
		}
	}
	return inv, nil
}

// TestInverseToMatchesFactorSolve pins the in-place inverse bit for bit
// against Factor + LU.Solve on random, ill-conditioned (Hilbert, and
// nearly rank-deficient) and singular inputs, reusing one workspace and
// one dirty destination per order so no state leaks between solves.
func TestInverseToMatchesFactorSolve(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for n := 1; n <= 8; n++ {
		f := NewLU(n)
		dst := NewDense(n, n)
		var cases []*Dense
		for trial := 0; trial < 20; trial++ {
			cases = append(cases, randomDense(rng, n))
		}
		hilbert := NewDense(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				hilbert.Set(i, j, 1/float64(i+j+1))
			}
		}
		nearSingular := randomDense(rng, n)
		if n > 1 {
			for j := 0; j < n; j++ {
				nearSingular.Set(n-1, j, nearSingular.At(0, j)*(1+1e-13))
			}
		}
		sparse := randomDense(rng, n)
		for i := range sparse.Data {
			if rng.Intn(2) == 0 && i%(n+1) != 0 {
				sparse.Data[i] = 0
			}
		}
		cases = append(cases, hilbert, nearSingular, sparse)
		for c, a := range cases {
			for i := range dst.Data {
				dst.Data[i] = math.NaN()
			}
			want, wantErr := factorSolveInverse(a)
			gotErr := InverseTo(dst, a, f)
			if (wantErr == nil) != (gotErr == nil) {
				t.Fatalf("n=%d case %d: InverseTo err %v, Factor+Solve err %v", n, c, gotErr, wantErr)
			}
			if wantErr != nil {
				continue
			}
			for i := range dst.Data {
				if math.Float64bits(dst.Data[i]) != math.Float64bits(want.Data[i]) {
					t.Fatalf("n=%d case %d: entry %d = %x, Factor+Solve %x", n, c, i, dst.Data[i], want.Data[i])
				}
			}
			inv, err := Inverse(a)
			if err != nil || !denseAlmostEqual(inv, want, 0) {
				t.Fatalf("n=%d case %d: Inverse differs from Factor+Solve (err %v)", n, c, err)
			}
		}
	}

	singular := FromRows([][]float64{{1, 2, 3}, {2, 4, 6}, {1, 0, 1}})
	if err := InverseTo(NewDense(3, 3), singular, NewLU(3)); err != ErrSingular {
		t.Errorf("singular InverseTo err = %v, want ErrSingular", err)
	}
	if _, err := factorSolveInverse(singular); err != ErrSingular {
		t.Errorf("singular Factor+Solve err = %v, want ErrSingular", err)
	}
	withNaN := FromRows([][]float64{{math.NaN(), 1}, {1, 1}})
	if err := InverseTo(NewDense(2, 2), withNaN, NewLU(2)); err != ErrSingular {
		t.Errorf("NaN InverseTo err = %v, want ErrSingular", err)
	}
}

// TestInPlaceKernelsAllocateNothing checks the workspace forms reuse
// their destinations: InverseTo, MulTo, VecMulTo and LU.SolveTo make no
// allocation, and a dirty destination gives the allocating result.
func TestInPlaceKernelsAllocateNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a, b := randomDense(rng, 4), randomDense(rng, 4)
	v := []float64{1, 0, -2, 0.5}
	f := NewLU(4)
	inv, prod := NewDense(4, 4), NewDense(4, 4)
	vec, x := make([]float64, 4), make([]float64, 4)
	allocs := testing.AllocsPerRun(20, func() {
		if err := InverseTo(inv, a, f); err != nil {
			t.Fatal(err)
		}
		if err := f.SolveTo(x, v); err != nil {
			t.Fatal(err)
		}
		a.MulTo(prod, b)
		a.VecMulTo(vec, v)
	})
	if allocs != 0 {
		t.Errorf("in-place kernels allocate %v times per run, want 0", allocs)
	}
	if !denseAlmostEqual(prod, a.Mul(b), 0) {
		t.Error("MulTo into a reused destination differs from Mul")
	}
	for i, w := range a.VecMul(v) {
		if vec[i] != w {
			t.Fatalf("VecMulTo[%d] = %v, VecMul %v", i, vec[i], w)
		}
	}
	want, err := Solve(a, v)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if x[i] != want[i] {
			t.Fatalf("SolveTo[%d] = %v, Solve %v", i, x[i], want[i])
		}
	}
}
