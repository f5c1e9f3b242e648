package matrix

import (
	"bufio"
	"encoding/binary"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// refFactor is the dense LU that factor replaced, kept as its
// reference: Doolittle elimination with partial pivoting through At and
// Set, every row update running over every column right of the pivot.
func refFactor(a *Dense) (lu *Dense, pivot []int, sign float64, err error) {
	n := a.Rows
	lu = a.Clone()
	pivot = make([]int, n)
	sign = 1.0
	for i := range pivot {
		pivot[i] = i
	}
	for col := 0; col < n; col++ {
		p := col
		max := math.Abs(lu.At(col, col))
		for r := col + 1; r < n; r++ {
			if a := math.Abs(lu.At(r, col)); a > max {
				max, p = a, r
			}
		}
		if max == 0 || math.IsNaN(max) {
			return lu, pivot, sign, ErrSingular
		}
		if p != col {
			for j := 0; j < n; j++ {
				lu.Data[p*n+j], lu.Data[col*n+j] = lu.Data[col*n+j], lu.Data[p*n+j]
			}
			pivot[p], pivot[col] = pivot[col], pivot[p]
			sign = -sign
		}
		d := lu.At(col, col)
		for r := col + 1; r < n; r++ {
			f := lu.At(r, col) / d
			lu.Set(r, col, f)
			if f == 0 {
				continue
			}
			for j := col + 1; j < n; j++ {
				lu.Set(r, j, lu.At(r, j)-f*lu.At(col, j))
			}
		}
	}
	return lu, pivot, sign, nil
}

// refSubstitute is the reference forward and back substitution.
func refSubstitute(lu *Dense, x []float64) error {
	n := lu.Rows
	for i := 0; i < n; i++ {
		for j := 0; j < i; j++ {
			x[i] -= lu.At(i, j) * x[j]
		}
	}
	for i := n - 1; i >= 0; i-- {
		for j := i + 1; j < n; j++ {
			x[i] -= lu.At(i, j) * x[j]
		}
		d := lu.At(i, i)
		if d == 0 {
			return ErrSingular
		}
		x[i] /= d
	}
	return nil
}

// sameBits reports whether a and b are the same float64 bit for bit.
// NaNs match any NaN: which NaN operand of a product the hardware
// propagates depends on the operand order the compiler picks.
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

// checkLUAgainstReference factors a with Factor (the Refactor copy) and
// FactorInPlace, and requires both to match refFactor bit for bit: the
// factors (also after a singular stop), the pivots, the sign, the error,
// and then the solution of A*x = e_last, of a dense right-hand side, and
// InverseTo's columns.
func checkLUAgainstReference(t *testing.T, name string, a *Dense) {
	t.Helper()
	n := a.Rows
	wantLU, wantPivot, wantSign, wantErr := refFactor(a)

	inPlace := a.Clone()
	got, gotErr := FactorInPlace(inPlace)
	copied := NewLU(n)
	if err := copied.Refactor(a); err != gotErr {
		t.Fatalf("%s: Refactor err %v, in-place err %v", name, err, gotErr)
	}
	if gotErr != wantErr {
		t.Fatalf("%s: err %v, reference %v", name, gotErr, wantErr)
	}
	for _, factors := range []*Dense{inPlace, copied.lu} {
		for i, v := range factors.Data {
			if !sameBits(v, wantLU.Data[i]) {
				t.Fatalf("%s: factor entry (%d, %d) = %x, reference %x", name, i/n, i%n, v, wantLU.Data[i])
			}
		}
	}
	if wantErr != nil {
		return
	}
	for _, f := range []*LU{got, copied} {
		for i, p := range f.pivot {
			if p != wantPivot[i] {
				t.Fatalf("%s: pivot[%d] = %d, reference %d", name, i, p, wantPivot[i])
			}
		}
		if f.signP != wantSign {
			t.Fatalf("%s: sign %v, reference %v", name, f.signP, wantSign)
		}
	}

	dense := make([]float64, n)
	for i := range dense {
		dense[i] = float64(i%7) - 2.5
	}
	last := make([]float64, n)
	last[n-1] = 1
	for _, b := range [][]float64{last, dense} {
		want := make([]float64, n)
		for i := range want {
			want[i] = b[wantPivot[i]]
		}
		wantErr := refSubstitute(wantLU, want)
		x, err := got.Solve(b)
		if err != wantErr {
			t.Fatalf("%s: Solve err %v, reference %v", name, err, wantErr)
		}
		for i := range x {
			if !sameBits(x[i], want[i]) {
				t.Fatalf("%s: solution[%d] = %x, reference %x", name, i, x[i], want[i])
			}
		}
	}

	inv := NewDense(n, n)
	invErr := InverseTo(inv, a, NewLU(n))
	col := make([]float64, n)
	for j := 0; j < n; j++ {
		for i := range col {
			col[i] = 0
			if wantPivot[i] == j {
				col[i] = 1
			}
		}
		if err := refSubstitute(wantLU, col); err != nil {
			if invErr != err {
				t.Fatalf("%s: InverseTo err %v, reference %v", name, invErr, err)
			}
			return
		}
		for i, v := range col {
			if !sameBits(inv.At(i, j), v) {
				t.Fatalf("%s: inverse (%d, %d) = %x, reference %x", name, i, j, inv.At(i, j), v)
			}
		}
	}
}

// loadChain reads a generator fixture written by internal/mapqn's
// TestChainFixtures and returns the system the dense steady-state solve
// factors: Q^T with its last row replaced by ones.
func loadChain(t testing.TB, name string) *Dense {
	t.Helper()
	f, err := os.Open(filepath.Join("testdata", "chains", name))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	var a *Dense
	var values []float64
	nValues := -1
	for sc.Scan() {
		line := sc.Text()
		fields := strings.Fields(line)
		switch {
		case strings.HasPrefix(line, "#"):
		case fields[0] == "states":
			n, _ := strconv.Atoi(fields[1])
			a = NewDense(n, n)
		case fields[0] == "values":
			nValues, _ = strconv.Atoi(fields[1])
		case len(values) < nValues:
			v, err := strconv.ParseFloat(fields[0], 64)
			if err != nil {
				t.Fatal(err)
			}
			values = append(values, v)
		default:
			i, _ := strconv.Atoi(fields[0])
			j, _ := strconv.Atoi(fields[1])
			k, _ := strconv.Atoi(fields[2])
			a.Set(j, i, values[k])
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	n := a.Rows
	for j := 0; j < n; j++ {
		a.Set(n-1, j, 1)
	}
	return a
}

// mm1kSystem is the dense steady-state system of an M/M/1/K queue.
func mm1kSystem(lambda, mu float64, k int) *Dense {
	n := k + 1
	a := NewDense(n, n)
	for i := 0; i < n; i++ {
		out := 0.0
		if i < k {
			a.Set(i+1, i, lambda)
			out += lambda
		}
		if i > 0 {
			a.Set(i-1, i, mu)
			out += mu
		}
		a.Set(i, i, -out)
	}
	for j := 0; j < n; j++ {
		a.Set(n-1, j, 1)
	}
	return a
}

// randomSparseDense draws an n-by-n matrix with about density of its
// entries nonzero, of mixed signs and magnitudes.
func randomSparseDense(rng *rand.Rand, n int, density float64) *Dense {
	a := NewDense(n, n)
	for i := range a.Data {
		if rng.Float64() < density {
			a.Data[i] = (rng.Float64()*2 - 1) * math.Pow(10, float64(rng.Intn(7)-3))
		}
	}
	return a
}

// onesRowWins is a banded system with small entries whose all-ones last
// row wins the first pivot, so its nonzeros spread fill into every row.
func onesRowWins(rng *rand.Rand, n int) *Dense {
	a := NewDense(n, n)
	for i := 0; i < n; i++ {
		for j := max(0, i-2); j <= min(n-1, i+2); j++ {
			a.Set(i, j, (rng.Float64()*2-1)*0.5)
		}
	}
	for j := 0; j < n; j++ {
		a.Set(n-1, j, 1)
	}
	a.Set(0, 0, 0.25)
	return a
}

// referenceCases are the systems the reference test and the fuzz
// target's seeds share: steady-state systems of the network chains and
// of an M/M/1/K queue, seeded random sparse matrices (one holding -0s),
// a system whose all-ones row wins pivoting, and one with a NaN below
// the first pivot.
func referenceCases(t testing.TB) map[string]*Dense {
	cases := map[string]*Dense{"mm1k": mm1kSystem(1, 1.5, 60)}
	for _, name := range []string{
		"k2_db1_n1.txt", "k2_db1_n4.txt", "k2_db1_n10.txt",
		"k2_db4_n1.txt", "k2_db4_n4.txt", "k2_db4_n10.txt",
		"k2_db400_n1.txt", "k2_db400_n4.txt", "k2_db400_n10.txt",
	} {
		cases[name] = loadChain(t, name)
	}
	rng := rand.New(rand.NewSource(23))
	for _, n := range []int{1, 2, 5, 17, 40} {
		for trial, density := range []float64{0.1, 0.3, 0.9} {
			cases["random/n="+strconv.Itoa(n)+"/"+strconv.Itoa(trial)] = randomSparseDense(rng, n, density)
		}
	}
	negZero := randomSparseDense(rng, 20, 0.3)
	for i := range negZero.Data {
		if negZero.Data[i] == 0 && rng.Intn(4) == 0 {
			negZero.Data[i] = math.Copysign(0, -1)
		}
	}
	cases["negative-zeros"] = negZero
	cases["ones-row-wins"] = onesRowWins(rng, 30)
	nan := randomSparseDense(rng, 12, 0.5)
	nan.Set(0, 0, 10)
	nan.Set(5, 0, math.NaN())
	cases["nan-below-pivot"] = nan
	return cases
}

// TestRefactorMatchesReference pins factor bit for bit against the dense
// reference elimination.
func TestRefactorMatchesReference(t *testing.T) {
	cases := referenceCases(t)
	cases["k2_db400_n14.txt"] = loadChain(t, "k2_db400_n14.txt")
	for name, a := range cases {
		checkLUAgainstReference(t, name, a)
	}
	if _, err := FactorInPlace(cases["nan-below-pivot"].Clone()); err != ErrSingular {
		t.Errorf("NaN below the pivot: err %v, want ErrSingular", err)
	}
}

// encodeSparse writes a as fuzz input: one record per nonzero entry
// (and per -0), a byte each for row and column and 8 bytes of value.
func encodeSparse(a *Dense) []byte {
	var out []byte
	for i, v := range a.Data {
		if math.Float64bits(v) == 0 {
			continue
		}
		out = append(out, byte(i/a.Cols), byte(i%a.Cols))
		out = binary.LittleEndian.AppendUint64(out, math.Float64bits(v))
	}
	return out
}

// decodeSparse is encodeSparse's inverse: it builds the matrix of order
// int(order)%64+1 that the fuzz target factors from its input, so the
// seed for an n-by-n matrix has order n-1.
func decodeSparse(order uint8, entries []byte) *Dense {
	n := int(order)%64 + 1
	a := NewDense(n, n)
	for ; len(entries) >= 10; entries = entries[10:] {
		i, j := int(entries[0])%n, int(entries[1])%n
		a.Set(i, j, math.Float64frombits(binary.LittleEndian.Uint64(entries[2:10])))
	}
	return a
}

// FuzzRefactorMatchesReference decodes an order and a list of entries
// into a matrix and requires factor to match the reference elimination
// bit for bit. It is seeded with every reference case small enough to
// encode, each checked to decode to that case.
func FuzzRefactorMatchesReference(f *testing.F) {
	cases := referenceCases(f)
	names := make([]string, 0, len(cases))
	for name := range cases {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		a := cases[name]
		if a.Rows > 64 {
			continue
		}
		order, entries := uint8(a.Rows-1), encodeSparse(a)
		got := decodeSparse(order, entries)
		if got.Rows != a.Rows {
			f.Fatalf("seed %s decodes to order %d, want %d", name, got.Rows, a.Rows)
		}
		for k, v := range got.Data {
			if math.Float64bits(v) != math.Float64bits(a.Data[k]) {
				f.Fatalf("seed %s decodes entry (%d, %d) to %x, want %x", name, k/a.Cols, k%a.Cols, v, a.Data[k])
			}
		}
		f.Add(order, entries)
	}
	f.Fuzz(func(t *testing.T, order uint8, entries []byte) {
		checkLUAgainstReference(t, "fuzz", decodeSparse(order, entries))
	})
}
