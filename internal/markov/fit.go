package markov

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// SelectionPolicy picks among MAP(2) candidates that match the measured
// mean and index of dispersion.
type SelectionPolicy int

const (
	// SelectClosestP95 picks the candidate whose stationary 95th
	// percentile is closest to the measurement — the paper's default rule
	// (Section 4.1).
	SelectClosestP95 SelectionPolicy = iota
	// SelectMaxLag1 breaks ties toward the largest lag-1 autocorrelation,
	// the paper's footnote-8 recommendation for conservative capacity
	// planning: among candidates that match the 95th percentile equally
	// well, prefer the most aggressive burstiness profile.
	SelectMaxLag1
)

// FitOptions tunes the (mean, I, p95) fitting search. The zero value uses
// the defaults implied by the paper.
type FitOptions struct {
	// Policy selects among near-tied candidates (default SelectClosestP95).
	Policy SelectionPolicy `json:"policy,omitempty"`
	// GridPoints is the number of SCV candidates scanned (default 200).
	GridPoints int `json:"grid_points,omitempty"`
	// MaxSCV caps the marginal SCV considered (default min(I, 500)).
	MaxSCV float64 `json:"max_scv,omitempty"`
	// MaxGamma caps the geometric autocorrelation decay (default 0.99,
	// i.e., burstiness persistence up to ~100 consecutive requests).
	// Candidates with gamma near 1 and SCV near 1 are degenerate — they
	// match I through vanishingly slow phase switching, which both
	// misrepresents the measured process and makes the queueing model's
	// Markov chain nearly decomposable (numerically intractable).
	MaxGamma float64 `json:"max_gamma,omitempty"`
	// TieTolerance treats candidates whose p95 error is within this
	// relative distance of the best as ties for SelectMaxLag1
	// (default 0.05).
	TieTolerance float64 `json:"tie_tolerance,omitempty"`
}

func (o FitOptions) withDefaults() FitOptions {
	if o.GridPoints <= 0 {
		o.GridPoints = 200
	}
	if o.TieTolerance <= 0 {
		o.TieTolerance = 0.05
	}
	if o.MaxGamma <= 0 || o.MaxGamma >= 1 {
		o.MaxGamma = 0.99
	}
	return o
}

// FitResult reports the fitted MAP together with the achieved
// descriptors, so callers can log how faithful the fit is.
type FitResult struct {
	MAP *MAP
	// SCV and Gamma are the parameters of the selected candidate.
	SCV   float64
	Gamma float64
	// AchievedI and AchievedP95 are the exact descriptors of the fitted
	// process.
	AchievedI   float64
	AchievedP95 float64
	// RelErrP95 is |achieved-target|/target (NaN when no p95 target given).
	RelErrP95 float64
}

// TheoreticalI returns the closed-form index of dispersion of the
// CorrelatedH2 family: I = scv + gamma/(1-gamma) * (scv - 1).
func TheoreticalI(scv, gamma float64) float64 {
	return scv + gamma/(1-gamma)*(scv-1)
}

// GammaForI inverts TheoreticalI: the geometric decay needed for a
// marginal with the given SCV to reach index of dispersion target I.
// Requires 1 < scv <= I.
func GammaForI(scv, targetI float64) (float64, error) {
	if targetI <= 1 {
		return 0, fmt.Errorf("markov: target I %v must be > 1", targetI)
	}
	if scv <= 1 || scv > targetI {
		return 0, fmt.Errorf("markov: SCV %v must lie in (1, I=%v]", scv, targetI)
	}
	return (targetI - scv) / (targetI - 1), nil
}

// ErrUnfittable is returned when no MAP(2) in the search family can
// represent the requested descriptors.
var ErrUnfittable = errors.New("markov: descriptors outside the MAP(2) family")

// FitThreePoint builds a MAP(2) service process from the paper's three
// measurements: mean service time, index of dispersion I, and the 95th
// percentile of service times. The procedure follows Section 4.1:
// candidates matching mean and I exactly are generated (here the
// CorrelatedH2 family, where gamma = (I-scv)/(I-1) hits I in closed
// form), and the candidate whose stationary 95th percentile is closest to
// the measurement is selected.
//
// Special regimes:
//   - I ~ 1 (within 5%): exponential service (Poisson MAP);
//   - I < 1: Erlang-k renewal with k = round(1/I) (smoother than Poisson);
//
// in both cases p95 is ignored, as the paper notes that under low
// burstiness the queueing behaviour is dominated by mean and SCV.
func FitThreePoint(mean, indexOfDispersion, p95 float64, opts FitOptions) (FitResult, error) {
	if mean <= 0 {
		return FitResult{}, fmt.Errorf("markov: mean %v must be > 0", mean)
	}
	if indexOfDispersion <= 0 {
		return FitResult{}, fmt.Errorf("markov: index of dispersion %v must be > 0", indexOfDispersion)
	}
	opts = opts.withDefaults()

	if indexOfDispersion < 0.95 {
		k := int(math.Round(1 / indexOfDispersion))
		if k < 1 {
			k = 1
		}
		if k > 100 {
			k = 100
		}
		m, err := ErlangRenewal(k, mean)
		if err != nil {
			return FitResult{}, err
		}
		return describeFit(m, 1.0/float64(k), 0, p95)
	}
	if indexOfDispersion <= 1.05 {
		m := Poisson(1 / mean)
		return describeFit(m, 1, 0, p95)
	}

	maxSCV := opts.MaxSCV
	if maxSCV <= 0 {
		maxSCV = 500
	}
	if maxSCV > indexOfDispersion {
		maxSCV = indexOfDispersion
	}
	// The gamma cap implies a floor on the marginal SCV: from
	// I = scv + gamma/(1-gamma)*(scv-1), requiring gamma <= MaxGamma
	// gives scv >= I*(1-gamma) + gamma.
	minSCV := indexOfDispersion*(1-opts.MaxGamma) + opts.MaxGamma
	if minSCV < 1.0001 {
		minSCV = 1.0001
	}
	if maxSCV <= minSCV {
		maxSCV = minSCV * 1.0001
	}

	type candidate struct {
		scv, gamma, p95, errP95, rho1 float64
	}
	cands := make([]candidate, 0, opts.GridPoints)
	// Log-spaced grid over (1, maxSCV]: burstiness spans orders of
	// magnitude, so linear spacing would waste points at the top.
	for g := 0; g < opts.GridPoints; g++ {
		frac := float64(g) / float64(opts.GridPoints-1)
		scv := minSCV * math.Pow(maxSCV/minSCV, frac)
		if scv > indexOfDispersion {
			scv = indexOfDispersion
		}
		gamma := 0.0
		if indexOfDispersion > 1 && scv < indexOfDispersion {
			gamma = (indexOfDispersion - scv) / (indexOfDispersion - 1)
		}
		if gamma >= 1 {
			continue
		}
		h, err := BalancedH2(mean, scv)
		if err != nil {
			continue
		}
		q, err := h2Quantile(h, 0.95)
		if err != nil {
			continue
		}
		errP95 := math.NaN()
		if p95 > 0 {
			errP95 = math.Abs(q-p95) / p95
		}
		// rho1 = gamma * (scv-1)/(2*scv) in this family.
		rho1 := gamma * (scv - 1) / (2 * scv)
		cands = append(cands, candidate{scv: scv, gamma: gamma, p95: q, errP95: errP95, rho1: rho1})
	}
	if len(cands) == 0 {
		return FitResult{}, ErrUnfittable
	}

	best := cands[0]
	if p95 > 0 {
		sort.Slice(cands, func(i, j int) bool { return cands[i].errP95 < cands[j].errP95 })
		best = cands[0]
		if opts.Policy == SelectMaxLag1 {
			// Among near-ties on p95, prefer the largest lag-1
			// autocorrelation (most conservative burstiness profile).
			for _, c := range cands[1:] {
				if c.errP95 > best.errP95+opts.TieTolerance {
					break
				}
				if c.rho1 > best.rho1 {
					best = c
				}
			}
		}
	} else if opts.Policy == SelectMaxLag1 {
		for _, c := range cands[1:] {
			if c.rho1 > best.rho1 {
				best = c
			}
		}
	}

	h, err := BalancedH2(mean, best.scv)
	if err != nil {
		return FitResult{}, err
	}
	m, err := CorrelatedH2(h, best.gamma)
	if err != nil {
		return FitResult{}, err
	}
	return describeFit(m, best.scv, best.gamma, p95)
}

func describeFit(m *MAP, scv, gamma, p95Target float64) (FitResult, error) {
	achI, err := m.IndexOfDispersion()
	if err != nil {
		return FitResult{}, err
	}
	achP95, err := m.Percentile(95)
	if err != nil {
		return FitResult{}, err
	}
	rel := math.NaN()
	if p95Target > 0 {
		rel = math.Abs(achP95-p95Target) / p95Target
	}
	return FitResult{
		MAP:         m,
		SCV:         scv,
		Gamma:       gamma,
		AchievedI:   achI,
		AchievedP95: achP95,
		RelErrP95:   rel,
	}, nil
}

// h2Quantile inverts the H2 CDF F(x) = 1 - p*e^{-r1 x} - (1-p)*e^{-r2 x}
// by bisection. Much cheaper than the general phase-type path because no
// matrix exponential is needed.
func h2Quantile(h H2Params, q float64) (float64, error) {
	if q <= 0 || q >= 1 {
		return 0, fmt.Errorf("markov: quantile %v out of (0,1)", q)
	}
	cdf := func(x float64) float64 {
		return 1 - h.P*math.Exp(-h.Rate1*x) - (1-h.P)*math.Exp(-h.Rate2*x)
	}
	hi := h.Mean()
	for i := 0; cdf(hi) < q; i++ {
		hi *= 2
		if i > 200 {
			return 0, errors.New("markov: H2 quantile bracketing failed")
		}
	}
	// Bisect for at most 100 steps, stopping at the fixed point: a step
	// that leaves (lo, hi) as they were leaves the next mid, and so every
	// later step, as they were too, and the answer is the one the full
	// 100 steps give.
	lo := 0.0
	for i := 0; i < 100; i++ {
		mid := (lo + hi) / 2
		if cdf(mid) < q {
			if mid == lo {
				break
			}
			lo = mid
		} else {
			if mid == hi {
				break
			}
			hi = mid
		}
	}
	return (lo + hi) / 2, nil
}

// FitMoments builds a MAP(2) from the first three moments and the lag-1
// autocorrelation of measured interarrival (service) times — the
// closed-form route of [Ferng & Chang; Casale, Zhang & Smirni] referenced
// in Section 4.1 of the paper. The marginal H2 is solved exactly from
// (m1, m2, m3) as a two-atom moment problem; the geometric decay is then
// gamma = rho1 / rho* with rho* = (m2/2 - m1^2)/(m2 - m1^2).
//
// Infeasible third moments are clamped to the H2 boundary
// m3 >= 1.5*m2^2/m1, and rho1 is clamped to [0, 0.999*rho*): measurement
// noise routinely lands just outside the representable region and the
// paper's methodology expects a usable process regardless.
func FitMoments(m1, m2, m3, rho1 float64) (FitResult, error) {
	if m1 <= 0 {
		return FitResult{}, fmt.Errorf("markov: m1 %v must be > 0", m1)
	}
	scv := m2/(m1*m1) - 1
	if scv <= 0 {
		return FitResult{}, fmt.Errorf("markov: m2 %v implies non-positive variance", m2)
	}
	if scv <= 1.0001 {
		// Exponential boundary: SCV ~ 1 leaves no room for an H2 fit.
		return describeFit(Poisson(1/m1), 1, 0, 0)
	}
	// Clamp m3 to the H2-feasible region.
	m3min := 1.5 * m2 * m2 / m1 * 1.0000001
	if m3 < m3min {
		m3 = m3min
	}
	// Two-atom moment problem on the phase means u = 1/rate:
	// atoms u,v with weights p,1-p matching M1 = m1, M2 = m2/2, M3 = m3/6.
	bigM1, bigM2, bigM3 := m1, m2/2, m3/6
	denom := bigM2 - bigM1*bigM1
	if denom <= 0 {
		return FitResult{}, ErrUnfittable
	}
	a := (bigM3 - bigM1*bigM2) / denom
	b := (bigM1*bigM3 - bigM2*bigM2) / denom
	disc := a*a - 4*b
	if disc < 0 {
		return FitResult{}, ErrUnfittable
	}
	u := (a + math.Sqrt(disc)) / 2
	v := (a - math.Sqrt(disc)) / 2
	if u <= 0 || v <= 0 || u == v {
		return FitResult{}, ErrUnfittable
	}
	p := (bigM1 - v) / (u - v)
	if p < 0 || p > 1 {
		return FitResult{}, ErrUnfittable
	}
	h := H2Params{P: p, Rate1: 1 / u, Rate2: 1 / v}

	sigma2 := m2 - m1*m1
	rhoStar := (m2/2 - m1*m1) / sigma2
	gamma := 0.0
	if rhoStar > 0 && rho1 > 0 {
		gamma = rho1 / rhoStar
		if gamma >= 0.999 {
			gamma = 0.999
		}
	}
	m, err := CorrelatedH2(h, gamma)
	if err != nil {
		return FitResult{}, err
	}
	return describeFit(m, h.SCV(), gamma, 0)
}
