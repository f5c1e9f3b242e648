// Package mva implements Mean Value Analysis for closed product-form
// queueing networks — the standard capacity-planning methodology the
// paper uses as its baseline (Section 3.4). It provides the exact
// single-class recursion, exact multiclass MVA over the population
// lattice, the Schweitzer approximate MVA for large populations, and
// asymptotic bounds.
//
// The paper's baseline model is ModelN with two demands — the front and
// database servers in series plus a delay station (user think time) —
// parameterized only by mean service demands, which is exactly what makes
// it blind to burstiness and bottleneck switch.
package mva

import (
	"errors"
	"fmt"
	"math"
)

// Network describes a closed single-class queueing network with
// load-independent queueing stations and one delay (infinite-server)
// station.
type Network struct {
	// Demands[i] is the mean service demand at queueing station i.
	Demands []float64
	// ThinkTime is the delay-station demand Z (0 for batch networks).
	ThinkTime float64
	// Names optionally labels stations for reports (len 0 or len(Demands)).
	Names []string
}

// Validate checks the network parameters.
func (n Network) Validate() error {
	if len(n.Demands) == 0 {
		return errors.New("mva: network needs at least one queueing station")
	}
	for i, d := range n.Demands {
		if d < 0 || math.IsNaN(d) {
			return fmt.Errorf("mva: demand[%d] = %v must be >= 0", i, d)
		}
	}
	if n.ThinkTime < 0 {
		return fmt.Errorf("mva: think time %v must be >= 0", n.ThinkTime)
	}
	if len(n.Names) != 0 && len(n.Names) != len(n.Demands) {
		return fmt.Errorf("mva: %d names for %d stations", len(n.Names), len(n.Demands))
	}
	total := 0.0
	for _, d := range n.Demands {
		total += d
	}
	if total <= 0 {
		return errors.New("mva: all demands are zero")
	}
	return nil
}

// ModelN builds the paper's queues-plus-think-time abstraction of a
// multi-tier system (Fig. 9), generalized to K tiers: K queueing
// stations in series (front, ..., database) closed by N customers with
// mean think time z. names may be nil, or one label per demand.
func ModelN(demands []float64, names []string, z float64) Network {
	return Network{
		Demands:   append([]float64(nil), demands...),
		ThinkTime: z,
		Names:     append([]string(nil), names...),
	}
}

// Result carries the MVA performance metrics at a population level.
type Result struct {
	Customers    int       `json:"customers"`
	Throughput   float64   `json:"throughput"`
	ResponseTime float64   `json:"response_time"` // total response time excluding think time
	QueueLengths []float64 `json:"queue_lengths"` // mean number at each queueing station
	Residence    []float64 `json:"residence"`     // mean residence time at each queueing station
	Utilizations []float64 `json:"utilizations"`  // throughput * demand per station
}

// Solve runs the exact single-class MVA recursion up to n customers and
// returns the metrics at population n.
func Solve(net Network, n int) (Result, error) {
	all, err := SolveSweep(net, n)
	if err != nil {
		return Result{}, err
	}
	return all[len(all)-1], nil
}

// SolveSweep runs the exact MVA recursion and returns metrics for every
// population 1..n (index 0 holds population 1). A single sweep is how
// capacity plans explore "what if the number of EBs grows".
func SolveSweep(net Network, n int) ([]Result, error) {
	if err := net.Validate(); err != nil {
		return nil, err
	}
	if n < 1 {
		return nil, fmt.Errorf("mva: population %d must be >= 1", n)
	}
	m := len(net.Demands)
	q := make([]float64, m) // queue lengths at previous population
	out := make([]Result, 0, n)
	for pop := 1; pop <= n; pop++ {
		res := Result{
			Customers:    pop,
			QueueLengths: make([]float64, m),
			Residence:    make([]float64, m),
			Utilizations: make([]float64, m),
		}
		res.Throughput, res.ResponseTime = Step(net.Demands, net.ThinkTime, pop, q, res.Residence)
		copy(res.QueueLengths, q)
		for i := 0; i < m; i++ {
			res.Utilizations[i] = res.Throughput * net.Demands[i]
		}
		out = append(out, res)
	}
	return out, nil
}

// Step advances the exact MVA recursion by one customer without
// allocating: q enters holding the queue lengths at population pop-1
// and leaves holding those at pop, resid receives the per-station
// residence times at pop, and Step returns the throughput and the total
// response time (excluding think time) at pop. Parameters are not
// validated; run Network.Validate first.
func Step(demands []float64, thinkTime float64, pop int, q, resid []float64) (x, r float64) {
	for i, d := range demands {
		resid[i] = d * (1 + q[i])
		r += resid[i]
	}
	x = float64(pop) / (thinkTime + r)
	for i := range demands {
		q[i] = x * resid[i]
	}
	return x, r
}

// SolveApprox runs the Schweitzer/Bard approximate MVA, which avoids the
// O(n) recursion and handles very large populations. The fixed point is
// iterated until queue lengths stabilize within tol.
func SolveApprox(net Network, n int, tol float64) (Result, error) {
	if err := net.Validate(); err != nil {
		return Result{}, err
	}
	if n < 1 {
		return Result{}, fmt.Errorf("mva: population %d must be >= 1", n)
	}
	if tol <= 0 {
		tol = 1e-10
	}
	m := len(net.Demands)
	q := make([]float64, m)
	for i := range q {
		q[i] = float64(n) / float64(m)
	}
	res := Result{Customers: n}
	for iter := 0; iter < 100000; iter++ {
		rTotal := 0.0
		resid := make([]float64, m)
		for i := 0; i < m; i++ {
			// Schweitzer estimate: arriving job sees (n-1)/n of the queue.
			resid[i] = net.Demands[i] * (1 + q[i]*float64(n-1)/float64(n))
			rTotal += resid[i]
		}
		x := float64(n) / (net.ThinkTime + rTotal)
		maxDelta := 0.0
		for i := 0; i < m; i++ {
			nq := x * resid[i]
			if d := math.Abs(nq - q[i]); d > maxDelta {
				maxDelta = d
			}
			q[i] = nq
		}
		if maxDelta < tol {
			res.Throughput = x
			res.ResponseTime = rTotal
			res.Residence = resid
			res.QueueLengths = append([]float64(nil), q...)
			res.Utilizations = make([]float64, m)
			for i := 0; i < m; i++ {
				res.Utilizations[i] = x * net.Demands[i]
			}
			return res, nil
		}
	}
	return Result{}, errors.New("mva: approximate MVA did not converge")
}

// Bounds holds asymptotic operational bounds on throughput.
type Bounds struct {
	// MaxThroughput is min over stations of 1/D_i (bottleneck law).
	MaxThroughput float64
	// LightLoad is N/(Z + sum D_i), the no-queueing upper bound.
	LightLoad float64
	// Saturation is the population N* = (Z + sum D_i)/D_max beyond which
	// the bottleneck saturates.
	Saturation float64
}

// AsymptoticBounds returns the classical throughput bounds for the
// network at population n.
func AsymptoticBounds(net Network, n int) (Bounds, error) {
	if err := net.Validate(); err != nil {
		return Bounds{}, err
	}
	dMax, dSum := 0.0, 0.0
	for _, d := range net.Demands {
		dSum += d
		if d > dMax {
			dMax = d
		}
	}
	return Bounds{
		MaxThroughput: 1 / dMax,
		LightLoad:     float64(n) / (net.ThinkTime + dSum),
		Saturation:    (net.ThinkTime + dSum) / dMax,
	}, nil
}

// UpperBound returns min(LightLoad, MaxThroughput), the tightest
// operational throughput bound at population n.
func UpperBound(net Network, n int) (float64, error) {
	b, err := AsymptoticBounds(net, n)
	if err != nil {
		return 0, err
	}
	return math.Min(b.LightLoad, b.MaxThroughput), nil
}
