package stats

import (
	"errors"
	"math"
)

// LinearFit holds the result of an ordinary least-squares fit
// y = Intercept + Slope*x.
type LinearFit struct {
	Slope     float64
	Intercept float64
	R2        float64 // coefficient of determination
}

// OLS fits y = a + b*x by ordinary least squares. It returns an error if
// the inputs have different lengths, fewer than two points, or zero
// variance in x.
//
// The paper (and [Zhang et al., Middleware'07]) uses this regression to
// estimate per-tier mean service demands from CPU utilization samples
// regressed against completion throughput (the utilization law
// U = S * X + U0).
func OLS(x, y []float64) (LinearFit, error) {
	if len(x) != len(y) {
		return LinearFit{}, errors.New("stats: OLS input length mismatch")
	}
	if len(x) < 2 {
		return LinearFit{}, ErrShort
	}
	mx, my := Mean(x), Mean(y)
	sxx, sxy, syy := 0.0, 0.0, 0.0
	for i := range x {
		dx := x[i] - mx
		dy := y[i] - my
		sxx += dx * dx
		sxy += dx * dy
		syy += dy * dy
	}
	if sxx == 0 {
		return LinearFit{}, errors.New("stats: OLS zero variance in x")
	}
	b := sxy / sxx
	a := my - b*mx
	r2 := 0.0
	if syy > 0 {
		r2 = (sxy * sxy) / (sxx * syy)
	}
	return LinearFit{Slope: b, Intercept: a, R2: r2}, nil
}

// OLSThroughOrigin fits y = b*x (no intercept) by least squares.
// Regression through the origin is the natural form of the utilization law
// when background utilization is negligible.
func OLSThroughOrigin(x, y []float64) (LinearFit, error) {
	if len(x) != len(y) {
		return LinearFit{}, errors.New("stats: OLS input length mismatch")
	}
	if len(x) == 0 {
		return LinearFit{}, ErrEmpty
	}
	sxx, sxy := 0.0, 0.0
	for i := range x {
		sxx += x[i] * x[i]
		sxy += x[i] * y[i]
	}
	if sxx == 0 {
		return LinearFit{}, errors.New("stats: OLS zero energy in x")
	}
	b := sxy / sxx
	// R2 relative to the zero-mean model.
	ssRes, ssTot := 0.0, 0.0
	for i := range x {
		r := y[i] - b*x[i]
		ssRes += r * r
		ssTot += y[i] * y[i]
	}
	r2 := 0.0
	if ssTot > 0 {
		r2 = 1 - ssRes/ssTot
	}
	return LinearFit{Slope: b, Intercept: 0, R2: r2}, nil
}

// RelativeError returns |predicted-actual|/|actual|, the error metric the
// paper reports on each bar of Fig. 11. It returns NaN when actual is zero.
func RelativeError(predicted, actual float64) float64 {
	if actual == 0 {
		return math.NaN()
	}
	return math.Abs(predicted-actual) / math.Abs(actual)
}
