// Package ph implements continuous phase-type (PH) distributions: the
// absorption time of a Markov chain with transient generator T and initial
// probability vector alpha. The stationary interarrival (or service) time
// of a Markovian Arrival Process is phase-type, so this package provides
// the distributional calculations (CDF, quantiles, moments) that the
// paper's MAP(2) selection step needs: choosing, among candidate MAP(2)s,
// the one whose 95th percentile of service times is closest to the
// measured estimate.
package ph

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"repro/internal/matrix"
	"repro/internal/xrand"
)

// Dist is a continuous phase-type distribution PH(alpha, T).
// T is the transient generator (negative diagonal, non-negative
// off-diagonal, row sums <= 0) and alpha the initial distribution over the
// transient states. The exit rate vector is t = -T*1.
type Dist struct {
	Alpha []float64
	T     *matrix.Dense

	exit  []float64 // -T*1
	negTi *matrix.Dense
}

// New validates and builds a phase-type distribution.
func New(alpha []float64, t *matrix.Dense) (*Dist, error) {
	if t.Rows != t.Cols {
		return nil, fmt.Errorf("ph: generator must be square, got %dx%d", t.Rows, t.Cols)
	}
	n := t.Rows
	if len(alpha) != n {
		return nil, fmt.Errorf("ph: alpha length %d, generator dimension %d", len(alpha), n)
	}
	sum := 0.0
	for i, a := range alpha {
		if a < -1e-12 {
			return nil, fmt.Errorf("ph: alpha[%d] = %v is negative", i, a)
		}
		sum += a
	}
	if math.Abs(sum-1) > 1e-9 {
		return nil, fmt.Errorf("ph: alpha sums to %v, want 1", sum)
	}
	exit := make([]float64, n)
	for i := 0; i < n; i++ {
		row := 0.0
		for j := 0; j < n; j++ {
			v := t.At(i, j)
			if i == j {
				if v > 1e-12 {
					return nil, fmt.Errorf("ph: diagonal T[%d][%d] = %v must be <= 0", i, i, v)
				}
			} else if v < -1e-12 {
				return nil, fmt.Errorf("ph: off-diagonal T[%d][%d] = %v must be >= 0", i, j, v)
			}
			row += v
		}
		if row > 1e-9 {
			return nil, fmt.Errorf("ph: row %d of T sums to %v > 0", i, row)
		}
		exit[i] = -row
	}
	negT := t.Scale(-1)
	negTi, err := matrix.Inverse(negT)
	if err != nil {
		return nil, fmt.Errorf("ph: (-T) is singular (chain not absorbing): %w", err)
	}
	return &Dist{Alpha: alpha, T: t, exit: exit, negTi: negTi}, nil
}

// MustNew is New but panics on error; for statically known parameters.
func MustNew(alpha []float64, t *matrix.Dense) *Dist {
	d, err := New(alpha, t)
	if err != nil {
		panic(err)
	}
	return d
}

// Exponential returns PH representing Exp(rate).
func Exponential(rate float64) *Dist {
	return MustNew([]float64{1}, matrix.FromRows([][]float64{{-rate}}))
}

// Erlang returns the Erlang-k distribution with the given total mean.
func Erlang(k int, mean float64) *Dist {
	if k < 1 {
		panic(fmt.Sprintf("ph: Erlang stages %d must be >= 1", k))
	}
	rate := float64(k) / mean
	t := matrix.NewDense(k, k)
	for i := 0; i < k; i++ {
		t.Set(i, i, -rate)
		if i+1 < k {
			t.Set(i, i+1, rate)
		}
	}
	alpha := make([]float64, k)
	alpha[0] = 1
	return MustNew(alpha, t)
}

// Hyper2 returns the two-phase hyperexponential PH with mixing probability
// p on rate r1 and (1-p) on rate r2.
func Hyper2(p, r1, r2 float64) *Dist {
	return MustNew(
		[]float64{p, 1 - p},
		matrix.FromRows([][]float64{{-r1, 0}, {0, -r2}}),
	)
}

// Order returns the number of phases.
func (d *Dist) Order() int { return d.T.Rows }

// Moment returns the k-th raw moment E[X^k] = k! * alpha * (-T)^{-k} * 1.
func (d *Dist) Moment(k int) float64 {
	if k < 1 {
		panic(fmt.Sprintf("ph: moment order %d must be >= 1", k))
	}
	v := append([]float64(nil), d.Alpha...)
	fact := 1.0
	for i := 1; i <= k; i++ {
		v = d.negTi.VecMul(v)
		fact *= float64(i)
	}
	sum := 0.0
	for _, x := range v {
		sum += x
	}
	return fact * sum
}

// Mean returns E[X].
func (d *Dist) Mean() float64 { return d.Moment(1) }

// Variance returns Var[X].
func (d *Dist) Variance() float64 {
	m1 := d.Moment(1)
	return d.Moment(2) - m1*m1
}

// SCV returns the squared coefficient of variation.
func (d *Dist) SCV() float64 {
	m1 := d.Mean()
	return d.Variance() / (m1 * m1)
}

// CDF returns P[X <= x] = 1 - alpha * e^{Tx} * 1.
func (d *Dist) CDF(x float64) float64 {
	if x <= 0 {
		return 0
	}
	w := d.survival(x)
	defer putWork(w)
	surv := 0.0
	for _, s := range w.v {
		surv += s
	}
	if surv < 0 {
		surv = 0
	}
	if surv > 1 {
		surv = 1
	}
	return 1 - surv
}

// PDF returns the density f(x) = alpha * e^{Tx} * t where t = -T*1.
func (d *Dist) PDF(x float64) float64 {
	if x < 0 {
		return 0
	}
	w := d.survival(x)
	defer putWork(w)
	sum := 0.0
	for i, s := range w.v {
		sum += s * d.exit[i]
	}
	if sum < 0 {
		return 0
	}
	return sum
}

// work is the scratch of one CDF or PDF evaluation: Tx, e^{Tx}, the
// exponential's workspace, and alpha*e^{Tx}.
type work struct {
	tx, exp *matrix.Dense
	expm    *matrix.ExpmWork
	v       []float64
}

// maxPooledOrder bounds the orders whose workspaces are pooled.
const maxPooledOrder = 16

// works recycles workspaces by order. Each evaluation holds its own, so
// concurrent callers of one Dist never share one.
var works [maxPooledOrder + 1]sync.Pool

func getWork(n int) *work {
	if n <= maxPooledOrder {
		if w, ok := works[n].Get().(*work); ok {
			return w
		}
	}
	return &work{tx: matrix.NewDense(n, n), exp: matrix.NewDense(n, n), expm: matrix.NewExpmWork(n), v: make([]float64, n)}
}

func putWork(w *work) {
	if n := len(w.v); n <= maxPooledOrder {
		works[n].Put(w)
	}
}

// survival returns a workspace holding alpha*e^{Tx}, the phase
// probabilities at time x, in its v; the caller puts it back.
func (d *Dist) survival(x float64) *work {
	w := getWork(d.Order())
	for i, v := range d.T.Data {
		w.tx.Data[i] = v * x
	}
	matrix.ExpmTo(w.exp, w.tx, w.expm)
	w.exp.VecMulTo(w.v, d.Alpha)
	return w
}

// ErrQuantile is returned when quantile bisection cannot bracket the
// requested probability (numerically degenerate distribution).
var ErrQuantile = errors.New("ph: quantile bracketing failed")

// Quantile returns the q-quantile (0 < q < 1) by bisection on the CDF.
// The result is accurate to a relative tolerance of about 1e-9.
func (d *Dist) Quantile(q float64) (float64, error) {
	if q <= 0 || q >= 1 {
		return 0, fmt.Errorf("ph: quantile %v out of range (0,1)", q)
	}
	// Bracket: expand hi until CDF(hi) > q.
	hi := d.Mean()
	if hi <= 0 || math.IsNaN(hi) {
		return 0, ErrQuantile
	}
	for i := 0; d.CDF(hi) < q; i++ {
		hi *= 2
		if i > 200 {
			return 0, ErrQuantile
		}
	}
	lo := 0.0
	for i := 0; i < 200; i++ {
		mid := (lo + hi) / 2
		if d.CDF(mid) < q {
			lo = mid
		} else {
			hi = mid
		}
		if hi-lo <= 1e-12*hi {
			break
		}
	}
	return (lo + hi) / 2, nil
}

// Sample draws one variate by simulating the absorbing chain.
func (d *Dist) Sample(src *xrand.Source) float64 {
	n := d.Order()
	// Choose initial phase.
	state := src.Choice(d.Alpha)
	total := 0.0
	for {
		rate := -d.T.At(state, state)
		if rate <= 0 {
			// Absorbing-in-place phase cannot happen in a valid PH; the
			// constructor enforces invertibility of -T.
			return total
		}
		total += src.ExpRate(rate)
		// Decide where to jump: exit with prob exit/rate, otherwise to j.
		u := src.Float64() * rate
		if u < d.exit[state] {
			return total
		}
		u -= d.exit[state]
		next := -1
		for j := 0; j < n; j++ {
			if j == state {
				continue
			}
			u -= d.T.At(state, j)
			if u < 0 {
				next = j
				break
			}
		}
		if next == -1 {
			return total // numerical edge: treat as absorption
		}
		state = next
	}
}
