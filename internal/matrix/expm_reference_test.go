package matrix

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// expm is ExpmTo into a fresh matrix with a fresh workspace.
func expm(a *Dense) *Dense {
	dst := NewDense(a.Rows, a.Rows)
	ExpmTo(dst, a, NewExpmWork(a.Rows))
	return dst
}

// refExpm is the allocating Expm that ExpmTo replaced, kept as its
// reference: each step of the Padé evaluation builds a fresh matrix
// through Clone, Scale, Add, Sub and Mul.
func refExpm(a *Dense) *Dense {
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
		panic(fmt.Sprintf("matrix: Expm denominator singular: %v", err))
	}
	res := denInv.Mul(num)
	for s := 0; s < squarings; s++ {
		res = res.Mul(res)
	}
	return res
}

// randomSubGenerator returns an order-n sub-generator (non-negative
// off-diagonal rates, rows summing to minus an exit rate) scaled so its
// largest entry is about scale, with about a third of the rates zero.
func randomSubGenerator(r *rand.Rand, n int, scale float64) *Dense {
	t := NewDense(n, n)
	for i := 0; i < n; i++ {
		row := r.Float64() // exit rate
		for j := 0; j < n; j++ {
			if j != i && r.Intn(3) > 0 {
				v := r.Float64()
				t.Set(i, j, v)
				row += v
			}
		}
		t.Set(i, i, -row)
	}
	return t.Scale(scale / t.MaxAbs())
}

// TestExpmToMatchesReference pins ExpmTo bit for bit against the former
// allocating Expm on seeded sub-generators of order 2 to 6, with norms
// from 0.01 (no squaring) to 3000 (13 squarings), one workspace reused
// across each order's matrices; a fresh workspace must agree, and a
// reused one must allocate nothing.
func TestExpmToMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(24))
	for n := 2; n <= 6; n++ {
		w := NewExpmWork(n)
		dst := NewDense(n, n)
		for _, scale := range []float64{0.01, 0.3, 0.5, 0.7, 1.9, 12, 3000} {
			for rep := 0; rep < 4; rep++ {
				a := randomSubGenerator(r, n, scale)
				want := refExpm(a)
				ExpmTo(dst, a, w)
				for i, v := range want.Data {
					if math.Float64bits(dst.Data[i]) != math.Float64bits(v) {
						t.Fatalf("order %d, norm %v: e^A[%d] = %x, reference %x", n, scale, i, dst.Data[i], v)
					}
				}
				if got := expm(a); !denseBitsEqual(got, want) {
					t.Fatalf("order %d, norm %v: a fresh workspace differs from the reference", n, scale)
				}
				if allocs := testing.AllocsPerRun(5, func() { ExpmTo(dst, a, w) }); allocs != 0 {
					t.Fatalf("order %d: ExpmTo allocates %v times, want 0", n, allocs)
				}
			}
		}
	}
}

func denseBitsEqual(a, b *Dense) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	for i, v := range a.Data {
		if math.Float64bits(v) != math.Float64bits(b.Data[i]) {
			return false
		}
	}
	return true
}
