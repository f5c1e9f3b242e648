// Package matrix implements the small dense linear algebra and sparse
// matrix kernels needed by the Markov-chain and MAP machinery: LU
// factorization with partial pivoting, inverses, matrix exponentials via
// scaling-and-squaring Padé approximation, and a CSR sparse format with
// iterative steady-state solvers living in package ctmc on top.
//
// The dense routines target the tiny matrices of MAP(2)/phase-type work
// (dimension 2..20); they favour clarity and numerical robustness over
// asymptotic speed. The LU also factors the balance equations of Markov
// chains of a few hundred states, and skips the arithmetic on their
// zeros.
package matrix

import (
	"errors"
	"fmt"
	"math"
	"strings"
)

// ErrSingular is returned when a factorization or solve meets a
// numerically singular matrix.
var ErrSingular = errors.New("matrix: singular matrix")

// Dense is a row-major dense matrix.
type Dense struct {
	Rows, Cols int
	Data       []float64 // len Rows*Cols, row-major
}

// NewDense returns a zero matrix with the given shape.
func NewDense(rows, cols int) *Dense {
	if rows < 1 || cols < 1 {
		panic(fmt.Sprintf("matrix: invalid shape %dx%d", rows, cols))
	}
	return &Dense{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// FromRows builds a Dense from row slices. All rows must have equal length.
func FromRows(rows [][]float64) *Dense {
	if len(rows) == 0 || len(rows[0]) == 0 {
		panic("matrix: FromRows needs at least one row and column")
	}
	m := NewDense(len(rows), len(rows[0]))
	for i, r := range rows {
		if len(r) != m.Cols {
			panic(fmt.Sprintf("matrix: ragged row %d (len %d, want %d)", i, len(r), m.Cols))
		}
		copy(m.Data[i*m.Cols:(i+1)*m.Cols], r)
	}
	return m
}

// Identity returns the n-by-n identity matrix.
func Identity(n int) *Dense {
	m := NewDense(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

// At returns element (i, j).
func (m *Dense) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Dense) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Clone returns a deep copy of m.
func (m *Dense) Clone() *Dense {
	out := NewDense(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// Add returns m + other.
func (m *Dense) Add(other *Dense) *Dense {
	m.mustSameShape(other)
	out := m.Clone()
	for i := range out.Data {
		out.Data[i] += other.Data[i]
	}
	return out
}

// Sub returns m - other.
func (m *Dense) Sub(other *Dense) *Dense {
	m.mustSameShape(other)
	out := m.Clone()
	for i := range out.Data {
		out.Data[i] -= other.Data[i]
	}
	return out
}

// Scale returns s*m.
func (m *Dense) Scale(s float64) *Dense {
	out := m.Clone()
	for i := range out.Data {
		out.Data[i] *= s
	}
	return out
}

// Mul returns the matrix product m * other.
func (m *Dense) Mul(other *Dense) *Dense {
	out := NewDense(m.Rows, other.Cols)
	m.MulTo(out, other)
	return out
}

// MulTo writes the matrix product m * other into dst, which must not
// alias either operand. It allocates nothing.
func (m *Dense) MulTo(dst, other *Dense) {
	if m.Cols != other.Rows {
		panic(fmt.Sprintf("matrix: Mul shape mismatch %dx%d * %dx%d", m.Rows, m.Cols, other.Rows, other.Cols))
	}
	if dst.Rows != m.Rows || dst.Cols != other.Cols {
		panic(fmt.Sprintf("matrix: Mul destination %dx%d, want %dx%d", dst.Rows, dst.Cols, m.Rows, other.Cols))
	}
	clear(dst.Data)
	for i := 0; i < m.Rows; i++ {
		for k := 0; k < m.Cols; k++ {
			a := m.At(i, k)
			if a == 0 {
				continue
			}
			row := other.Data[k*other.Cols : (k+1)*other.Cols]
			outRow := dst.Data[i*dst.Cols : (i+1)*dst.Cols]
			for j, b := range row {
				outRow[j] += a * b
			}
		}
	}
}

// MulVec returns the matrix-vector product m * v.
func (m *Dense) MulVec(v []float64) []float64 {
	if m.Cols != len(v) {
		panic(fmt.Sprintf("matrix: MulVec shape mismatch %dx%d * %d", m.Rows, m.Cols, len(v)))
	}
	out := make([]float64, m.Rows)
	for i := 0; i < m.Rows; i++ {
		sum := 0.0
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		for j, a := range row {
			sum += a * v[j]
		}
		out[i] = sum
	}
	return out
}

// VecMul returns the vector-matrix product v * m (v treated as a row
// vector). This is the natural operation for probability vectors.
func (m *Dense) VecMul(v []float64) []float64 {
	out := make([]float64, m.Cols)
	m.VecMulTo(out, v)
	return out
}

// VecMulTo writes the vector-matrix product v * m into dst (len m.Cols),
// which must not alias v. It allocates nothing.
func (m *Dense) VecMulTo(dst, v []float64) {
	if m.Rows != len(v) || m.Cols != len(dst) {
		panic(fmt.Sprintf("matrix: VecMul shape mismatch %d * %dx%d -> %d", len(v), m.Rows, m.Cols, len(dst)))
	}
	clear(dst)
	for i, a := range v {
		if a == 0 {
			continue
		}
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		for j, b := range row {
			dst[j] += a * b
		}
	}
}

// Transpose returns m transposed.
func (m *Dense) Transpose() *Dense {
	out := NewDense(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			out.Set(j, i, m.At(i, j))
		}
	}
	return out
}

// RowSums returns the vector of row sums.
func (m *Dense) RowSums() []float64 {
	out := make([]float64, m.Rows)
	for i := 0; i < m.Rows; i++ {
		sum := 0.0
		for j := 0; j < m.Cols; j++ {
			sum += m.At(i, j)
		}
		out[i] = sum
	}
	return out
}

// MaxAbs returns the largest absolute entry of m.
func (m *Dense) MaxAbs() float64 {
	max := 0.0
	for _, v := range m.Data {
		if a := math.Abs(v); a > max {
			max = a
		}
	}
	return max
}

// String renders the matrix for debugging.
func (m *Dense) String() string {
	var b strings.Builder
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			fmt.Fprintf(&b, "%12.6g", m.At(i, j))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func (m *Dense) mustSameShape(other *Dense) {
	if m.Rows != other.Rows || m.Cols != other.Cols {
		panic(fmt.Sprintf("matrix: shape mismatch %dx%d vs %dx%d", m.Rows, m.Cols, other.Rows, other.Cols))
	}
}

func (m *Dense) mustSquare() {
	if m.Rows != m.Cols {
		panic(fmt.Sprintf("matrix: %dx%d is not square", m.Rows, m.Cols))
	}
}

// LU holds an LU factorization with partial pivoting: P*A = L*U. It is
// also a reusable workspace: Refactor and InverseTo overwrite it without
// allocating, so one LU they use must not be shared between goroutines.
type LU struct {
	lu    *Dense
	pivot []int
	signP float64
	col   []float64 // InverseTo's column scratch
}

// NewLU returns an n-by-n factorization workspace for Refactor and
// InverseTo.
func NewLU(n int) *LU {
	return &LU{lu: NewDense(n, n), pivot: make([]int, n), col: make([]float64, n)}
}

// Factor computes the LU factorization of square matrix a with partial
// pivoting. It returns ErrSingular for numerically singular input.
func Factor(a *Dense) (*LU, error) {
	a.mustSquare()
	f := NewLU(a.Rows)
	if err := f.Refactor(a); err != nil {
		return nil, err
	}
	return f, nil
}

// FactorInPlace is Factor without the copy: it overwrites the square
// matrix a with its factors, and the returned LU keeps a as its storage,
// so a must not be used again except through the LU. The factors are
// Factor's, bit for bit.
func FactorInPlace(a *Dense) (*LU, error) {
	a.mustSquare()
	n := a.Rows
	f := &LU{lu: a, pivot: make([]int, n), col: make([]float64, n)}
	if err := f.factor(); err != nil {
		return nil, err
	}
	return f, nil
}

// Refactor overwrites f with the LU factorization of a, which must have
// f's order: it copies a into f and eliminates there, updating each row
// only over the span of the pivot row's nonzeros (see factor), with the
// factors of the full dense elimination bit for bit. It returns
// ErrSingular for numerically singular input, and then leaves f unusable
// until the next successful Refactor. It allocates nothing.
func (f *LU) Refactor(a *Dense) error {
	a.mustSquare()
	n := a.Rows
	if f.lu.Rows != n {
		panic(fmt.Sprintf("matrix: Refactor of %dx%d into an order-%d LU", n, n, f.lu.Rows))
	}
	copy(f.lu.Data, a.Data)
	return f.factor()
}

// factor runs Doolittle elimination with partial pivoting on f.lu in
// place, leaving the multipliers below the diagonal and U on and above
// it.
//
// Each elimination step updates row r right of the pivot column as
// rowR[j] -= m*rowC[j], but only over the span from the first to the
// last nonzero of the pivot row rowC right of the diagonal. On a K=2
// network chain that is a tenth of the dense n^3/3 updates: the chain's
// Q^T is banded, and partial pivoting keeps the fill near the band. The
// skipped updates are x - m*(±0) with |m| <= 1 (partial pivoting), which
// is x bit for bit, with two exceptions, both handled by the full row
// loop:
//
//   - m is NaN (a NaN below the pivot): NaN*0 is NaN, so every entry of
//     the row must take it.
//   - x is -0: -0 - (-0) is +0. No update makes a -0 from operands that
//     are not: x - y is -0 only when x is -0 and y is +0, since an exact
//     zero difference rounds to +0 and a difference in the subnormal
//     range is exact. This takes the product m*rowC[j] rounded before
//     the subtraction, as amd64 code computes it; where the compiler
//     fuses the two into one FMA (arm64, ppc64le, s390x, riscv64), a
//     product below the smallest subnormal subtracted from +0 can round
//     to -0, and the factors can then differ from the full elimination's
//     in the sign of a zero. The multipliers, which may be -0, sit left
//     of the trailing matrix and are never read as x or as rowC. So a
//     -0-free input keeps the trailing matrix -0-free, and an input
//     holding a -0 takes the full row loop at every step.
func (f *LU) factor() error {
	n := f.lu.Rows
	data := f.lu.Data
	pivot := f.pivot
	for i := range pivot {
		pivot[i] = i
	}
	sparse := !hasNegativeZero(data)
	sign := 1.0
	for col := 0; col < n; col++ {
		// Find pivot row.
		p := col
		max := math.Abs(data[col*n+col])
		for r := col + 1; r < n; r++ {
			if a := math.Abs(data[r*n+col]); a > max {
				max, p = a, r
			}
		}
		if max == 0 || math.IsNaN(max) {
			return ErrSingular
		}
		rowC := data[col*n : (col+1)*n]
		if p != col {
			rowP := data[p*n : (p+1)*n]
			for j := range rowC {
				rowP[j], rowC[j] = rowC[j], rowP[j]
			}
			pivot[p], pivot[col] = pivot[col], pivot[p]
			sign = -sign
		}
		lo, hi := col+1, n
		if sparse {
			for lo < hi && rowC[lo] == 0 {
				lo++
			}
			for hi > lo && rowC[hi-1] == 0 {
				hi--
			}
		}
		d := rowC[col]
		for r := col + 1; r < n; r++ {
			rowR := data[r*n : (r+1)*n]
			m := rowR[col] / d
			rowR[col] = m
			if m == 0 {
				continue
			}
			span, dst := rowC[lo:hi], rowR[lo:hi]
			if math.IsNaN(m) {
				span, dst = rowC[col+1:], rowR[col+1:]
			}
			dst = dst[:len(span)]
			for k, v := range span {
				dst[k] -= m * v
			}
		}
	}
	f.signP = sign
	return nil
}

// hasNegativeZero reports whether data holds a -0.
func hasNegativeZero(data []float64) bool {
	const negZero = 1 << 63
	for _, v := range data {
		if math.Float64bits(v) == negZero {
			return true
		}
	}
	return false
}

// Solve solves A*x = b using the factorization.
func (f *LU) Solve(b []float64) ([]float64, error) {
	x := make([]float64, f.lu.Rows)
	if err := f.SolveTo(x, b); err != nil {
		return nil, err
	}
	return x, nil
}

// SolveTo solves A*x = b into x, which must not alias b. It allocates
// nothing.
func (f *LU) SolveTo(x, b []float64) error {
	n := f.lu.Rows
	if len(b) != n {
		return fmt.Errorf("matrix: Solve rhs length %d, want %d", len(b), n)
	}
	if len(x) != n {
		return fmt.Errorf("matrix: Solve solution length %d, want %d", len(x), n)
	}
	for i := 0; i < n; i++ {
		x[i] = b[f.pivot[i]]
	}
	return f.substitute(x)
}

// substitute finishes a solve in place: x enters as the permuted
// right-hand side P*b and leaves as the solution.
func (f *LU) substitute(x []float64) error {
	n := f.lu.Rows
	data := f.lu.Data
	// Forward substitution (L has unit diagonal).
	for i := 0; i < n; i++ {
		s := x[i]
		for j, v := range data[i*n : i*n+i] {
			s -= v * x[j]
		}
		x[i] = s
	}
	// Back substitution.
	for i := n - 1; i >= 0; i-- {
		row := data[i*n : (i+1)*n]
		s := x[i]
		for j := i + 1; j < n; j++ {
			s -= row[j] * x[j]
		}
		d := row[i]
		if d == 0 {
			return ErrSingular
		}
		x[i] = s / d
	}
	return nil
}

// Det returns the determinant from the factorization.
func (f *LU) Det() float64 {
	det := f.signP
	for i := 0; i < f.lu.Rows; i++ {
		det *= f.lu.At(i, i)
	}
	return det
}

// Solve solves A*x = b for square A.
func Solve(a *Dense, b []float64) ([]float64, error) {
	f, err := Factor(a)
	if err != nil {
		return nil, err
	}
	return f.Solve(b)
}

// Inverse returns A^{-1}, or ErrSingular.
func Inverse(a *Dense) (*Dense, error) {
	a.mustSquare()
	inv := NewDense(a.Rows, a.Rows)
	if err := InverseTo(inv, a, NewLU(a.Rows)); err != nil {
		return nil, err
	}
	return inv, nil
}

// InverseTo writes A^{-1} into dst, factoring a in the workspace f, or
// returns ErrSingular. It allocates nothing: dst column j is the solve
// of A*x = e_j.
func InverseTo(dst, a *Dense, f *LU) error {
	if err := f.Refactor(a); err != nil {
		return err
	}
	n := a.Rows
	if dst.Rows != n || dst.Cols != n {
		panic(fmt.Sprintf("matrix: InverseTo destination %dx%d, want %dx%d", dst.Rows, dst.Cols, n, n))
	}
	x := f.col
	for j := 0; j < n; j++ {
		for i := range x {
			x[i] = 0
			if f.pivot[i] == j {
				x[i] = 1
			}
		}
		if err := f.substitute(x); err != nil {
			return err
		}
		for i, v := range x {
			dst.Data[i*n+j] = v
		}
	}
	return nil
}

// Expm returns the matrix exponential e^A computed with the
// scaling-and-squaring method and a degree-6 Padé approximant. This is
// accurate for the small generator matrices used in phase-type and MAP
// calculations.
func Expm(a *Dense) *Dense {
	a.mustSquare()
	n := a.Rows
	// Scale A down until its max-abs entry is below 0.5.
	norm := a.MaxAbs()
	squarings := 0
	scaled := a.Clone()
	if norm > 0.5 {
		squarings = int(math.Ceil(math.Log2(norm / 0.5)))
		scaled = a.Scale(1 / math.Pow(2, float64(squarings)))
	}
	// Padé(6,6): N(A) = sum c_k A^k, D(A) = sum c_k (-A)^k.
	const degree = 6
	c := make([]float64, degree+1)
	c[0] = 1
	for k := 1; k <= degree; k++ {
		c[k] = c[k-1] * float64(degree-k+1) / float64(k*(2*degree-k+1))
	}
	num := Identity(n).Scale(c[0])
	den := Identity(n).Scale(c[0])
	pow := Identity(n)
	for k := 1; k <= degree; k++ {
		pow = pow.Mul(scaled)
		num = num.Add(pow.Scale(c[k]))
		if k%2 == 0 {
			den = den.Add(pow.Scale(c[k]))
		} else {
			den = den.Sub(pow.Scale(c[k]))
		}
	}
	denInv, err := Inverse(den)
	if err != nil {
		// The Padé denominator of a sufficiently scaled matrix is always
		// well conditioned; reaching this indicates NaN/Inf input.
		panic(fmt.Sprintf("matrix: Expm denominator singular: %v", err))
	}
	res := denInv.Mul(num)
	for s := 0; s < squarings; s++ {
		res = res.Mul(res)
	}
	return res
}
