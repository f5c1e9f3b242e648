// Package mapqn implements the paper's capacity-planning model (Fig. 9
// parameterized as in Section 4), generalized from the paper's two tiers
// to an arbitrary chain of K MAP-service stations: a closed tandem
// network of queueing stations — front, application, database, ... —
// plus a delay station (user think time Z), populated by N customers
// (emulated browsers). The model is solved exactly by building the
// underlying continuous-time Markov chain over states
// (n_0..n_{K-1}, phase_0..phase_{K-1}) and computing its stationary
// distribution, the approach the paper uses for model validation
// (Section 4.2, citing the MAP queueing networks of
// [Casale, Mi & Smirni, SIGMETRICS'08]).
//
// The API is Station / NetworkModel / SolveNetwork / NetworkBounds, plus
// the approximate decomposition solver SolveNetworkDecomp. The paper's
// front+DB model is the K=2 NetworkModel.
//
// Semantics: each station serves one job at a time, with service
// completions driven by the station's MAP (transitions in D1 complete the
// job in service, transitions in D0 change only the modulating phase).
// The MAP phase is frozen while a station idles: the MAP models the
// *service process*, whose clock advances only when work is done. The
// burstiness the MAP carries across consecutive completions is exactly
// what lets the model reproduce bottleneck switch.
package mapqn

import (
	"context"
	"errors"
	"fmt"
	"math"

	"repro/internal/ctmc"
	"repro/internal/markov"
)

// Station is one queueing station of an N-tier closed MAP network: a
// named server whose service completions are driven by a MAP. Stations
// are visited in slice order — think pool -> station 0 -> station 1 ->
// ... -> station K-1 -> think pool — the tandem topology of a multi-tier
// request path (front, application, database, ...).
type Station struct {
	// Name labels the station in reports ("front", "app", "db", ...).
	Name string
	// MAP is the station's service process. Transitions in D1 complete
	// the job in service; transitions in D0 only change the modulating
	// phase. The phase is frozen while the station idles unless the
	// network sets PhasesRunWhileIdle.
	MAP *markov.MAP
	// Visits is the mean number of visits a request pays to this station
	// per think-to-think cycle (the visit ratio V_i). Zero means 1. A
	// station with V != 1 is folded into the tandem chain by scaling its
	// service process so the mean demand per pass equals V*S — the
	// standard demand aggregation, which preserves the process's
	// burstiness structure (SCV, autocorrelations, I are scale-invariant).
	Visits float64
}

// effectiveMAP returns the station's service process with the visit
// ratio folded in.
func (s Station) effectiveMAP() (*markov.MAP, error) {
	v := s.Visits
	if v == 0 {
		v = 1
	}
	if v == 1 {
		return s.MAP, nil
	}
	return s.MAP.Scale(v * s.MAP.Mean())
}

// NetworkModel is a closed tandem network of K MAP-service stations plus
// a delay station (user think time), populated by a fixed number of
// customers. It generalizes the paper's two-station model (Fig. 9) to
// any number of tiers; the front+DB network is the K=2 special case.
type NetworkModel struct {
	// Stations are the queueing stations in visit order.
	Stations []Station
	// ThinkTime is the mean think time Z of the delay station.
	ThinkTime float64
	// Customers is the number of emulated browsers N.
	Customers int
	// PhasesRunWhileIdle selects the idle-station semantics. The default
	// (false) freezes a station's MAP phase while its queue is empty —
	// the service process only advances when work is done, the semantics
	// of MAP queueing networks and of this paper. When true, the
	// modulating chain Q = D0+D1 keeps evolving during idleness (as if
	// the burstiness stemmed from an external environment); the ablation
	// benchmark quantifies the difference.
	PhasesRunWhileIdle bool
}

// Validate checks the network parameters.
func (m NetworkModel) Validate() error {
	if len(m.Stations) == 0 {
		return errors.New("mapqn: network needs at least one station")
	}
	for i, s := range m.Stations {
		if s.MAP == nil {
			return fmt.Errorf("mapqn: station %d (%s) has no MAP", i, s.Name)
		}
		if s.Visits < 0 {
			return fmt.Errorf("mapqn: station %d (%s) visit ratio %v must be >= 0", i, s.Name, s.Visits)
		}
	}
	if m.ThinkTime < 0 {
		return fmt.Errorf("mapqn: think time %v must be >= 0", m.ThinkTime)
	}
	if m.Customers < 1 {
		return fmt.Errorf("mapqn: customers %d must be >= 1", m.Customers)
	}
	return nil
}

// StationNames returns the station labels, substituting "station<i>" for
// blanks.
func (m NetworkModel) StationNames() []string {
	names := make([]string, len(m.Stations))
	for i, s := range m.Stations {
		names[i] = s.Name
		if names[i] == "" {
			names[i] = fmt.Sprintf("station%d", i)
		}
	}
	return names
}

// NetworkMetrics carries the exact stationary performance measures of an
// N-station network, with one slice entry per station.
type NetworkMetrics struct {
	// Throughput is the system throughput X (completions of full
	// think-to-think cycles per second).
	Throughput float64 `json:"throughput"`
	// ResponseTime is the mean end-to-end response time N/X - Z.
	ResponseTime float64 `json:"response_time"`
	// Utils[i] is the busy probability of station i.
	Utils []float64 `json:"utils"`
	// QueueLens[i] is the mean queue length at station i (in service or
	// waiting).
	QueueLens []float64 `json:"queue_lens"`
	// QueueDists[i][k] = P(k jobs at station i), the stationary
	// queue-length distribution exposing burstiness-induced heavy tails.
	QueueDists [][]float64 `json:"queue_dists"`
	// Thinking is the mean number of customers in think state.
	Thinking float64 `json:"thinking"`
	// StationNames labels the slices above.
	StationNames []string `json:"station_names"`
	// States is the size of the underlying CTMC.
	States int `json:"states"`
	// SolverIterations and SolverMethod report how the chain was solved.
	SolverIterations int    `json:"solver_iterations"`
	SolverMethod     string `json:"solver_method"`
	// SolverBackend names the generator representation the solve used:
	// "csr" (materialized) or "matrix-free" (rows regenerated per
	// product).
	SolverBackend string `json:"solver_backend,omitempty"`
	// FixedPointResidual is the final outer residual of the decomposition
	// fixed point (SolverMethod "decomp"): the maximum relative change of
	// any station's effective demand at convergence. Zero for exact
	// solves.
	FixedPointResidual float64 `json:"fixed_point_residual,omitempty"`
}

// stateSpaceN enumerates the CTMC states of a K-station network:
// (n_0..n_{K-1}, j_0..j_{K-1}) with sum n_i <= N and j_i a phase of
// station i's MAP. Population vectors are ranked in lexicographic order
// via the combinatorial number system; phases are a mixed-radix suffix.
// For K=2 this is the triangular (n_1, n_2) layout of the hand-built
// two-station reference generator the tests compare against.
type stateSpaceN struct {
	n         int   // population
	phases    []int // phase count per station
	phaseProd int
	// binom[a][b] = C(a, b) for a <= n+K, b <= K.
	binom [][]int
	comps int // number of population vectors: C(n+K, K)
}

// satAdd and satMul are saturating int operations: combinatorial counts
// of deep chains overflow int well before the maxStates guard can see
// them, so the table builders clamp at math.MaxInt instead of wrapping
// and sizeChecked reports the overflow.
func satAdd(a, b int) int {
	if a > math.MaxInt-b {
		return math.MaxInt
	}
	return a + b
}

func satMul(a, b int) int {
	if a == 0 || b == 0 {
		return 0
	}
	if a > math.MaxInt/b {
		return math.MaxInt
	}
	return a * b
}

func newStateSpaceN(n int, phases []int) *stateSpaceN {
	k := len(phases)
	s := &stateSpaceN{n: n, phases: phases, phaseProd: 1}
	for _, m := range phases {
		s.phaseProd = satMul(s.phaseProd, m)
	}
	s.binom = make([][]int, n+k+1)
	for a := 0; a <= n+k; a++ {
		s.binom[a] = make([]int, k+1)
		s.binom[a][0] = 1
		for b := 1; b <= k && b <= a; b++ {
			if a == b {
				s.binom[a][b] = 1
			} else {
				s.binom[a][b] = satAdd(s.binom[a-1][b-1], s.binom[a-1][b])
			}
		}
	}
	s.comps = s.binom[n+k][k]
	return s
}

// size returns the total number of CTMC states. Callers sizing real
// chains must use sizeChecked, which detects arithmetic overflow.
func (s *stateSpaceN) size() int { return s.comps * s.phaseProd }

// sizeChecked returns the total number of CTMC states, or an error when
// the count does not fit in an int (the composition count and the phase
// product saturate at math.MaxInt, and their product is checked too).
func (s *stateSpaceN) sizeChecked() (int, error) {
	if s.comps <= 0 || s.phaseProd <= 0 || s.comps == math.MaxInt || s.phaseProd == math.MaxInt {
		return 0, errors.New("mapqn: state space size overflows int")
	}
	if s.comps > math.MaxInt/s.phaseProd {
		return 0, errors.New("mapqn: state space size overflows int")
	}
	return s.comps * s.phaseProd, nil
}

// compRank ranks a population vector lexicographically among all vectors
// with sum <= n: it counts, per position, the vectors sharing the prefix
// whose entry at that position is smaller. With rem budget left and p
// positions remaining, each candidate value v contributes
// C(rem-v+p-1, p-1) completions.
func (s *stateSpaceN) compRank(pop []int) int {
	k := len(s.phases)
	rank := 0
	rem := s.n
	for i := 0; i < k; i++ {
		for v := 0; v < pop[i]; v++ {
			rank += s.binom[rem-v+k-i-1][k-i-1]
		}
		rem -= pop[i]
	}
	return rank
}

// compUnrank inverts compRank into pop (len K).
func (s *stateSpaceN) compUnrank(rank int, pop []int) {
	k := len(s.phases)
	rem := s.n
	for i := 0; i < k; i++ {
		v := 0
		for {
			c := s.binom[rem-v+k-i-1][k-i-1]
			if rank < c {
				break
			}
			rank -= c
			v++
		}
		pop[i] = v
		rem -= v
	}
}

// nextComposition advances pop to the next population vector in
// compRank order (lexicographic, last station varying fastest),
// returning false once pop is the last vector. Walking the compositions
// this way costs O(K) per step — the generator assembly uses it instead
// of a compUnrank per state.
func (s *stateSpaceN) nextComposition(pop []int) bool {
	k := len(s.phases)
	total := 0
	for _, v := range pop {
		total += v
	}
	if total < s.n {
		pop[k-1]++
		return true
	}
	// Budget exhausted: clear the rightmost non-zero entry and carry one
	// unit into the position to its left.
	j := k - 1
	for j >= 0 && pop[j] == 0 {
		j--
	}
	if j <= 0 {
		return false
	}
	pop[j] = 0
	pop[j-1]++
	return true
}

// index maps (pop, phase) to a state index. phase is the mixed-radix
// phase combination with station 0 most significant.
func (s *stateSpaceN) index(pop []int, phase int) int {
	return s.compRank(pop)*s.phaseProd + phase
}

// decode maps a state index back to (pop, phases-per-station).
func (s *stateSpaceN) decode(idx int, pop, phase []int) {
	p := idx % s.phaseProd
	s.compUnrank(idx/s.phaseProd, pop)
	for i := len(s.phases) - 1; i >= 0; i-- {
		phase[i] = p % s.phases[i]
		p /= s.phases[i]
	}
}

// Per-backend state-count ceilings and the auto-selection threshold.
// The CSR backend stores Q^T, ~10 entries of 16 bytes per state, so a
// few million states already costs gigabytes; the
// matrix-free backend keeps one float64 per state and regenerates rows
// on the fly, so its ceiling is set by the solver vectors alone.
// ctmc.Options.MaxStates overrides the per-backend default.
const (
	csrDefaultMaxStates        = 2_000_000
	matrixFreeDefaultMaxStates = 50_000_000
	autoMatrixFreeThreshold    = 1_000_000
)

// resolveBackend maps the requested backend (auto picks CSR below the
// threshold, matrix-free above) to a concrete one plus its state limit.
func resolveBackend(opts ctmc.Options, size int) (ctmc.Backend, int, error) {
	backend := opts.Backend
	switch backend {
	case ctmc.BackendAuto:
		if size > autoMatrixFreeThreshold {
			backend = ctmc.BackendMatrixFree
		} else {
			backend = ctmc.BackendCSR
		}
	case ctmc.BackendCSR, ctmc.BackendMatrixFree:
	default:
		return "", 0, fmt.Errorf("mapqn: unknown solver backend %q (want %q or %q)",
			backend, ctmc.BackendCSR, ctmc.BackendMatrixFree)
	}
	limit := opts.MaxStates
	if limit <= 0 {
		if backend == ctmc.BackendMatrixFree {
			limit = matrixFreeDefaultMaxStates
		} else {
			limit = csrDefaultMaxStates
		}
	}
	return backend, limit, nil
}

// ErrStateLimit marks solves refused because the model's state space
// exceeds the backend's budget (or overflows int). Callers can detect it
// with errors.Is and degrade to NetworkBounds, which costs O(N*K)
// regardless of the state count.
var ErrStateLimit = errors.New("state space over solver limit")

// errStateOverflow reports a state count that does not fit in an int.
func errStateOverflow(k, n int) error {
	return fmt.Errorf("mapqn: state space of %d stations at N=%d overflows int; use NetworkBounds: %w", k, n, ErrStateLimit)
}

// errStateLimit reports a state count over the backend's budget, naming
// the count and the cheaper alternatives.
func errStateLimit(k, n, size, limit int, backend ctmc.Backend) error {
	hint := "set ctmc.Options.Backend to matrix-free (or raise ctmc.Options.MaxStates), or fall back to NetworkBounds"
	if backend == ctmc.BackendMatrixFree {
		hint = "raise ctmc.Options.MaxStates or fall back to NetworkBounds"
	}
	return fmt.Errorf("mapqn: state space of %d stations at N=%d has %d states, over the %s backend limit %d; %s: %w",
		k, n, size, backend, limit, hint, ErrStateLimit)
}

// SolveNetwork builds and solves the K-station CTMC exactly, returning
// stationary per-station metrics.
func SolveNetwork(m NetworkModel, opts ctmc.Options) (NetworkMetrics, error) {
	return SolveNetworkCtx(context.Background(), m, opts)
}

// SolveNetworkCtx is SolveNetwork with cooperative cancellation: both the
// generator assembly and the iterative steady-state solve poll ctx and
// return ctx.Err() promptly when the context is done.
func SolveNetworkCtx(ctx context.Context, m NetworkModel, opts ctmc.Options) (NetworkMetrics, error) {
	met, _, err := solveNetwork(ctx, m, opts, nil)
	return met, err
}

// networkSolution retains what a warm-started sweep needs from one
// population's solve: the state space and the stationary vector.
type networkSolution struct {
	space *stateSpaceN
	pi    []float64
}

// solveNetwork is the full solver: when warm is non-nil and compatible
// (same station phases), its stationary vector is embedded into the new
// population's state space and seeds the iterative solver.
func solveNetwork(ctx context.Context, m NetworkModel, opts ctmc.Options, warm *networkSolution) (NetworkMetrics, *networkSolution, error) {
	if err := m.Validate(); err != nil {
		return NetworkMetrics{}, nil, err
	}
	maps := make([]*markov.MAP, len(m.Stations))
	for i, st := range m.Stations {
		em, err := st.effectiveMAP()
		if err != nil {
			return NetworkMetrics{}, nil, fmt.Errorf("mapqn: station %d (%s): %w", i, st.Name, err)
		}
		maps[i] = em
	}
	g, err := newGenParams(m, maps)
	if err != nil {
		return NetworkMetrics{}, nil, errStateOverflow(len(maps), m.Customers)
	}
	backend, limit, err := resolveBackend(opts, g.size)
	if err != nil {
		return NetworkMetrics{}, nil, err
	}
	if g.size > limit {
		return NetworkMetrics{}, nil, errStateLimit(g.k, g.n, g.size, limit, backend)
	}
	if warm != nil && warm.space != nil {
		if init := embedPi(warm.space, g.space, warm.pi); init != nil {
			opts.Initial = init
		}
	}
	mf, err := newMatrixFreeGen(ctx, g)
	if err != nil {
		return NetworkMetrics{}, nil, err
	}
	var op ctmc.Operator = mf
	if backend == ctmc.BackendCSR {
		qt, err := mf.assembleTranspose(ctx)
		if err != nil {
			return NetworkMetrics{}, nil, err
		}
		op = transposeOp{qt}
	}
	res, err := ctmc.SteadyStateOperatorCtx(ctx, op, opts)
	if err != nil {
		if ctx.Err() != nil {
			return NetworkMetrics{}, nil, ctx.Err()
		}
		return NetworkMetrics{}, nil, fmt.Errorf("mapqn: steady-state solve failed: %w", err)
	}
	met, err := collectMetricsN(m, maps, g.space, res)
	if err != nil {
		return NetworkMetrics{}, nil, err
	}
	met.SolverBackend = string(backend)
	return met, &networkSolution{space: g.space, pi: res.Pi}, nil
}

// embedPi maps a stationary vector between the state spaces of two
// populations of the same network (identical station phase counts):
// state (pop, phase) keeps its mass at the destination's index for
// (pop, phase). Growing the population leaves the new states — those
// with more customers in service — at zero mass; shrinking it drops the
// now-infeasible states. The result is an unnormalized warm-start guess
// (ctmc renormalizes); nil means no usable mass survived or the spaces
// are incompatible.
func embedPi(from, to *stateSpaceN, pi []float64) []float64 {
	if len(from.phases) != len(to.phases) || from.phaseProd != to.phaseProd {
		return nil
	}
	for i, p := range from.phases {
		if to.phases[i] != p {
			return nil
		}
	}
	if len(pi) != from.size() {
		return nil
	}
	pp := from.phaseProd
	out := make([]float64, to.size())
	pop := make([]int, len(from.phases))
	mass := 0.0
	for block := 0; ; block++ {
		total := 0
		for _, v := range pop {
			total += v
		}
		if total <= to.n {
			src := pi[block*pp : (block+1)*pp]
			dst := out[to.compRank(pop)*pp:]
			for i, v := range src {
				dst[i] = v
				mass += v
			}
		}
		if !from.nextComposition(pop) {
			break
		}
	}
	if mass <= 0 {
		return nil
	}
	return out
}

// collectMetricsN computes throughput, utilizations and queue lengths
// from the stationary vector.
func collectMetricsN(m NetworkModel, maps []*markov.MAP, space *stateSpaceN, res ctmc.Result) (NetworkMetrics, error) {
	k := len(maps)
	last := k - 1
	exit := maps[last].D1.RowSums() // completion rate per last-station phase

	utils := make([]float64, k)
	qlens := make([]float64, k)
	dists := make([][]float64, k)
	for i := range dists {
		dists[i] = make([]float64, m.Customers+1)
	}
	var x, think float64
	pop := make([]int, k)
	phase := make([]int, k)
	for idx, p := range res.Pi {
		if p == 0 {
			continue
		}
		space.decode(idx, pop, phase)
		total := 0
		for i := 0; i < k; i++ {
			dists[i][pop[i]] += p
			if pop[i] > 0 {
				utils[i] += p
				qlens[i] += p * float64(pop[i])
			}
			total += pop[i]
		}
		if pop[last] > 0 {
			x += p * exit[phase[last]]
		}
		think += p * float64(m.Customers-total)
	}
	if x <= 0 {
		return NetworkMetrics{}, errors.New("mapqn: zero throughput (degenerate model)")
	}
	return NetworkMetrics{
		Throughput:       x,
		ResponseTime:     float64(m.Customers)/x - m.ThinkTime,
		Utils:            utils,
		QueueLens:        qlens,
		QueueDists:       dists,
		Thinking:         think,
		StationNames:     m.StationNames(),
		States:           space.size(),
		SolverIterations: res.Iterations,
		SolverMethod:     res.Method,
	}, nil
}

// SolveNetworkSweep solves the network at each population level. Each
// population is its own CTMC, but consecutive populations are solved
// warm-started: the previous stationary vector is embedded into the next
// population's state space (the extra states start at zero mass) and
// seeds the iterative solver, which typically converges in a fraction of
// the cold-start iterations. Convergence is still checked against the
// same residual tolerance, so warm-started results match cold-started
// ones to within solver tolerance.
func SolveNetworkSweep(stations []Station, thinkTime float64, customers []int, opts ctmc.Options) ([]NetworkMetrics, error) {
	return SolveNetworkSweepCtx(context.Background(), stations, thinkTime, customers, opts, nil)
}

// SweepProgress observes a population sweep: it is called once after each
// population's solve completes, with the index into the sweep, the
// population just solved, and its metrics. Callbacks run synchronously on
// the solving goroutine.
type SweepProgress func(index, population int, met NetworkMetrics)

// SolveNetworkSweepCtx is SolveNetworkSweep with cooperative cancellation
// and an optional progress callback (nil to disable). Cancellation is
// polled inside each population's assembly and solve, so a canceled sweep
// returns ctx.Err() within one sweep step.
func SolveNetworkSweepCtx(ctx context.Context, stations []Station, thinkTime float64, customers []int, opts ctmc.Options, progress SweepProgress) ([]NetworkMetrics, error) {
	out := make([]NetworkMetrics, 0, len(customers))
	var prev *networkSolution
	for i, n := range customers {
		m := NetworkModel{Stations: stations, ThinkTime: thinkTime, Customers: n}
		met, sol, err := solveNetwork(ctx, m, opts, prev)
		if err != nil {
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			return nil, fmt.Errorf("mapqn: population %d: %w", n, err)
		}
		out = append(out, met)
		prev = sol
		if progress != nil {
			progress(i, n, met)
		}
	}
	return out, nil
}
