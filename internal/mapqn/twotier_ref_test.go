package mapqn

import (
	"errors"
	"fmt"

	"repro/internal/ctmc"
	"repro/internal/matrix"
)

// A hand-built two-station solver — a triangular (n1, n2, j1, j2) state
// space, a triplet-assembled generator, and its own metric collection —
// written independently of the generic K-station machinery so the tests
// can require buildGeneratorN and SolveNetwork to reproduce it at K=2.

// stateSpace enumerates states (n1, n2, j1, j2) with n1+n2 <= N.
// Index layout: for each (n1, n2) pair (triangular), a block of
// m1*m2 phase combinations.
type stateSpace struct {
	n          int // customers
	m1, m2     int // phase counts
	pairOffset []int
	pairCount  int
}

func newStateSpace(n, m1, m2 int) *stateSpace {
	s := &stateSpace{n: n, m1: m1, m2: m2}
	s.pairOffset = make([]int, n+2)
	count := 0
	for n1 := 0; n1 <= n; n1++ {
		s.pairOffset[n1] = count
		count += n - n1 + 1 // n2 in 0..n-n1
	}
	s.pairOffset[n+1] = count
	s.pairCount = count
	return s
}

// size returns the total number of CTMC states.
func (s *stateSpace) size() int { return s.pairCount * s.m1 * s.m2 }

// index maps (n1, n2, j1, j2) to a state index.
func (s *stateSpace) index(n1, n2, j1, j2 int) int {
	pair := s.pairOffset[n1] + n2
	return (pair*s.m1+j1)*s.m2 + j2
}

// decode maps a state index back to (n1, n2, j1, j2).
func (s *stateSpace) decode(idx int) (n1, n2, j1, j2 int) {
	j2 = idx % s.m2
	idx /= s.m2
	j1 = idx % s.m1
	pair := idx / s.m1
	// Find n1 with pairOffset[n1] <= pair < pairOffset[n1+1].
	lo, hi := 0, s.n
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if s.pairOffset[mid] <= pair {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	n1 = lo
	n2 = pair - s.pairOffset[n1]
	return n1, n2, j1, j2
}

// checkTwoStation validates m and rejects anything but two stations
// visited once each, the only shape the reference covers.
func checkTwoStation(m NetworkModel) error {
	if err := m.Validate(); err != nil {
		return err
	}
	if len(m.Stations) != 2 {
		return fmt.Errorf("mapqn: two-station reference given %d stations", len(m.Stations))
	}
	for _, st := range m.Stations {
		if st.Visits != 0 && st.Visits != 1 {
			return errors.New("mapqn: two-station reference does not fold visit ratios")
		}
	}
	return nil
}

// solveLegacy solves a K=2 network with the hand-built reference
// generator.
func solveLegacy(m NetworkModel, opts ctmc.Options) (NetworkMetrics, error) {
	if err := checkTwoStation(m); err != nil {
		return NetworkMetrics{}, err
	}
	gen, space := buildGenerator(m)
	res, err := ctmc.SteadyState(gen, opts)
	if err != nil {
		return NetworkMetrics{}, fmt.Errorf("mapqn: steady-state solve failed: %w", err)
	}
	return collectMetrics(m, space, res)
}

// buildGenerator assembles the sparse CTMC generator of a K=2 network
// from triplets, one hand-written transition family at a time.
func buildGenerator(m NetworkModel) (*matrix.CSR, *stateSpace) {
	front, db := m.Stations[0].MAP, m.Stations[1].MAP
	n := m.Customers
	m1, m2 := front.Order(), db.Order()
	space := newStateSpace(n, m1, m2)
	thinkRate := 0.0
	if m.ThinkTime > 0 {
		thinkRate = 1 / m.ThinkTime
	}

	// Estimated non-zeros: think + front(D0+D1) + db(D0+D1) per state.
	est := space.size() * (2 + m1 + m2 + 2)
	entries := make([]matrix.Triplet, 0, est)
	add := func(from, to int, rate float64) {
		if rate <= 0 {
			return
		}
		entries = append(entries, matrix.Triplet{Row: from, Col: to, Val: rate})
		entries = append(entries, matrix.Triplet{Row: from, Col: from, Val: -rate})
	}

	for n1 := 0; n1 <= n; n1++ {
		for n2 := 0; n2 <= n-n1; n2++ {
			thinking := n - n1 - n2
			for j1 := 0; j1 < m1; j1++ {
				for j2 := 0; j2 < m2; j2++ {
					from := space.index(n1, n2, j1, j2)
					// Think completions: a customer submits a request.
					if thinking > 0 && thinkRate > 0 {
						add(from, space.index(n1+1, n2, j1, j2), float64(thinking)*thinkRate)
					} else if thinking > 0 && thinkRate == 0 {
						// Z = 0: think stage is instantaneous; model as a
						// very fast transition to keep the chain finite.
						// (Callers should use Z > 0; this branch keeps the
						// generator well-formed for the degenerate case.)
						add(from, space.index(n1+1, n2, j1, j2), float64(thinking)*1e9)
					}
					// Front server active.
					if n1 > 0 {
						for k1 := 0; k1 < m1; k1++ {
							// Completion: job moves front -> DB.
							add(from, space.index(n1-1, n2+1, k1, j2), front.D1.At(j1, k1))
							// Phase change without completion.
							if k1 != j1 {
								add(from, space.index(n1, n2, k1, j2), front.D0.At(j1, k1))
							}
						}
					} else if m.PhasesRunWhileIdle {
						// Idle station with a free-running environment:
						// the modulating chain Q = D0+D1 evolves without
						// completions.
						for k1 := 0; k1 < m1; k1++ {
							if k1 != j1 {
								add(from, space.index(n1, n2, k1, j2),
									front.D0.At(j1, k1)+front.D1.At(j1, k1))
							}
						}
					}
					// DB server active.
					if n2 > 0 {
						for k2 := 0; k2 < m2; k2++ {
							// Completion: job returns to the think pool.
							add(from, space.index(n1, n2-1, j1, k2), db.D1.At(j2, k2))
							if k2 != j2 {
								add(from, space.index(n1, n2, j1, k2), db.D0.At(j2, k2))
							}
						}
					} else if m.PhasesRunWhileIdle {
						for k2 := 0; k2 < m2; k2++ {
							if k2 != j2 {
								add(from, space.index(n1, n2, j1, k2),
									db.D0.At(j2, k2)+db.D1.At(j2, k2))
							}
						}
					}
				}
			}
		}
	}
	return matrix.NewCSR(space.size(), entries), space
}

// collectMetrics computes throughput, utilizations and queue lengths
// from the stationary vector of the reference chain.
func collectMetrics(m NetworkModel, space *stateSpace, res ctmc.Result) (NetworkMetrics, error) {
	dbExit := m.Stations[1].MAP.D1.RowSums() // completion rate per DB phase

	var x, uF, uD, qF, qD, think float64
	distF := make([]float64, m.Customers+1)
	distD := make([]float64, m.Customers+1)
	for idx, p := range res.Pi {
		if p == 0 {
			continue
		}
		n1, n2, _, j2 := space.decode(idx)
		distF[n1] += p
		distD[n2] += p
		if n1 > 0 {
			uF += p
			qF += p * float64(n1)
		}
		if n2 > 0 {
			uD += p
			qD += p * float64(n2)
			x += p * dbExit[j2]
		}
		think += p * float64(m.Customers-n1-n2)
	}
	if x <= 0 {
		return NetworkMetrics{}, errors.New("mapqn: zero throughput (degenerate model)")
	}
	return NetworkMetrics{
		Throughput:       x,
		ResponseTime:     float64(m.Customers)/x - m.ThinkTime,
		Utils:            []float64{uF, uD},
		QueueLens:        []float64{qF, qD},
		QueueDists:       [][]float64{distF, distD},
		Thinking:         think,
		StationNames:     m.StationNames(),
		States:           space.size(),
		SolverIterations: res.Iterations,
		SolverMethod:     res.Method,
	}, nil
}
