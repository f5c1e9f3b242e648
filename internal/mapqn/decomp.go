package mapqn

// Near-decomposable approximate solver: an aggregation/disaggregation
// fixed point that replaces the exact product-space CTMC with K small
// per-station chains. The bursty networks the paper studies are nearly
// decomposable — the slow MAP phase process modulates fast per-tier
// queueing — so each station is analyzed in isolation against a
// flow-equivalent aggregate of the rest of the network (Norton's
// theorem), and the coupling is closed through a fixed point on
// per-station effective demands.
//
// Per station i the solver builds a level chain over (n, j) — n jobs
// present (0..N), j a phase of the station's effective MAP — with
// state-dependent arrival rates lam(n) = X_c(N-n), the throughput of the
// complement network (think pool plus every other station as an
// exponential queue with its current effective demand) holding the
// remaining N-n customers. The chain is block tridiagonal with m = phase
// blocks, so its stationary vector costs O(N*m^3) by backward block
// elimination — no iteration, no product state space. Each outer
// iteration then recalibrates station i's effective demand (Marie's
// method): the demand G_i(d) an exponential station would need to
// reproduce the MAP chain's residence time under identical arrivals,
// found by inverting the monotone closed-form birth-death residence.
// The demand vector moves toward d = G(d) by a type-II Anderson step
// over its last few iterates (see andersonMixer), which converges in
// about a dozen iterations where the plain damped step d += beta*(G(d)-d)
// contracts at a rate near 0.8 and needed 100-300. On product-form
// networks (exponential services) the MAP chain *is* that exponential
// reference, the calibration returns the initial demands unchanged, and
// the fixed point terminates immediately — by Norton's theorem the
// result is then exact, which the property tests pin against exact CTMC
// and MVA. For K=1 the level chain is the exact CTMC (arrivals
// (N-n)/Z), so the solver is exact for any MAP.
//
// Cost per outer iteration is O(K * (N*K + N*m^3)) plus the root search
// that calibrates each surrogate (O(N) per probe; Illinois regula falsi
// needs about 11 probes where bisection needed about 48). Every buffer an iteration touches lives in
// one workspace per solve — per station the constant MAP blocks, all N
// level inverses in one flat slice, the LU scratch and the stationary
// vector, and the Anderson history — and a population sweep shares one
// workspace sized at its largest population, so the fixed-point
// iterations allocate nothing (TestDecompIterationsAllocateNothing pins
// this). Measured with BenchmarkSolveDecomp on a 2-vCPU x86-64 Xeon VM,
// the MAP(2) networks at N=200 take about 2 ms for K=4 (12 iterations)
// and 5 ms for K=6 (17 iterations), with under 150 allocations per
// solve; the exact product-space chain of either is far too large to
// build.

import (
	"context"
	"errors"
	"fmt"
	"math"

	"repro/internal/ctmc"
	"repro/internal/markov"
	"repro/internal/matrix"
	"repro/internal/mva"
)

// DecompOptions configures the aggregation/disaggregation fixed point.
// The zero value selects the defaults. The per-station chains are solved
// by direct block elimination, so there are no inner-solver knobs: the
// options govern only the outer demand fixed point.
type DecompOptions struct {
	// Tol is the outer convergence tolerance on the largest relative gap
	// |G(d) - d| / d between a station's effective demand and its
	// recalibrated target (default 1e-9).
	Tol float64 `json:"tol,omitempty"`
	// MaxIter caps the outer fixed-point iterations (default 200). On
	// exhaustion the solve fails with an error wrapping
	// ctmc.ErrNoConvergence so callers degrade the same way they do for
	// the exact solver.
	MaxIter int `json:"max_iter,omitempty"`
	// Damping is the mixing step beta in (0, 1] of the Anderson demand
	// update: the share of the newest residual G(d) - d each step adds,
	// and the plain damped step d += beta*(G(d) - d) the update falls
	// back to when its least squares is singular (default 0.5).
	Damping float64 `json:"damping,omitempty"`
}

// Decomposition fixed-point defaults.
const (
	decompDefaultTol     = 1e-9
	decompDefaultMaxIter = 200
	decompDefaultDamping = 0.5
)

func (o DecompOptions) withDefaults() (DecompOptions, error) {
	if o.Tol == 0 {
		o.Tol = decompDefaultTol
	}
	if o.MaxIter == 0 {
		o.MaxIter = decompDefaultMaxIter
	}
	if o.Damping == 0 {
		o.Damping = decompDefaultDamping
	}
	if o.Tol < 0 || math.IsNaN(o.Tol) {
		return o, fmt.Errorf("mapqn: decomp tol %v must be >= 0", o.Tol)
	}
	if o.MaxIter < 0 {
		return o, fmt.Errorf("mapqn: decomp max iterations %d must be >= 0", o.MaxIter)
	}
	if o.Damping < 0 || o.Damping > 1 || math.IsNaN(o.Damping) {
		return o, fmt.Errorf("mapqn: decomp damping %v must be in (0, 1]", o.Damping)
	}
	return o, nil
}

// SolverMethodDecomp is the NetworkMetrics.SolverMethod reported by the
// decomposition solver.
const SolverMethodDecomp = "decomp"

// SolveNetworkDecomp approximates the K-station network by per-station
// decomposition instead of the exact product-space CTMC. See the package
// comment at the top of this file for the algorithm; headline cost is
// O(K*N*phases) states total versus the exact solver's combinatorial
// product space.
func SolveNetworkDecomp(m NetworkModel, opts DecompOptions) (NetworkMetrics, error) {
	return SolveNetworkDecompCtx(context.Background(), m, opts)
}

// SolveNetworkDecompCtx is SolveNetworkDecomp with cooperative
// cancellation, polled between fixed-point iterations.
func SolveNetworkDecompCtx(ctx context.Context, m NetworkModel, opts DecompOptions) (NetworkMetrics, error) {
	met, _, err := solveDecomp(ctx, m, opts, nil, nil)
	return met, err
}

// SolveNetworkDecompSweep solves the network approximately at each
// population level. Consecutive populations warm-start the demand fixed
// point from the previous converged effective demands, which typically
// cuts the outer iterations to a handful.
func SolveNetworkDecompSweep(stations []Station, thinkTime float64, customers []int, opts DecompOptions) ([]NetworkMetrics, error) {
	return SolveNetworkDecompSweepCtx(context.Background(), stations, thinkTime, customers, opts, nil)
}

// SolveNetworkDecompSweepCtx is SolveNetworkDecompSweep with cooperative
// cancellation and an optional progress callback (nil to disable),
// mirroring SolveNetworkSweepCtx.
func SolveNetworkDecompSweepCtx(ctx context.Context, stations []Station, thinkTime float64, customers []int, opts DecompOptions, progress SweepProgress) ([]NetworkMetrics, error) {
	out := make([]NetworkMetrics, 0, len(customers))
	maxN := 0
	for _, n := range customers {
		maxN = max(maxN, n)
	}
	ws := newDecompWorkspace(len(stations), maxN)
	var warm []float64
	for i, n := range customers {
		m := NetworkModel{Stations: stations, ThinkTime: thinkTime, Customers: n}
		met, d, err := solveDecomp(ctx, m, opts, warm, ws)
		if err != nil {
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			return nil, fmt.Errorf("population %d: %w", n, err) // err names mapqn
		}
		out = append(out, met)
		warm = d
		if progress != nil {
			progress(i, n, met)
		}
	}
	return out, nil
}

// stationSolution holds one station's isolated-chain analysis at the
// current effective demands.
type stationSolution struct {
	pi     []float64 // stationary vector, n-major: pi[n*m+j]; the chain's buffer
	x      float64   // station throughput (completions/s)
	qlen   float64   // mean jobs present
	util   float64   // P(n > 0)
	resMAP float64   // residence time qlen/x from the MAP chain
}

// decompWorkspace holds every buffer the fixed point reuses: one level
// chain per station, the complement MVA's scratch, the arrival rates,
// the demand targets and the Anderson history. It is sized for
// populations up to capN, so a sweep builds one at its largest
// population and no fixed-point iteration allocates.
type decompWorkspace struct {
	capN     int
	chains   []stationChain
	sols     []stationSolution // latest solution per station; pi aliases its chain
	targets  []float64         // fixed-point target demand per station
	lam      []float64         // arrival rate per station level
	demands  []float64         // the complement network's demands
	q, resid []float64         // complement MVA queue lengths and residences
	mix      andersonMixer
}

func newDecompWorkspace(k, capN int) *decompWorkspace {
	return &decompWorkspace{
		capN:    capN,
		chains:  make([]stationChain, k),
		lam:     make([]float64, capN),
		sols:    make([]stationSolution, k),
		targets: make([]float64, k),
		demands: make([]float64, 0, k),
		q:       make([]float64, k),
		resid:   make([]float64, k),
		mix:     newAndersonMixer(k),
	}
}

// solveDecomp runs the demand fixed point in workspace ws, which must be
// sized for len(m.Stations) stations and at least m.Customers; nil
// allocates one for this solve alone. warm optionally seeds the
// effective demands from a previous solve of the same stations (a sweep
// neighbor); nil starts from the MAP mean demands. It returns the
// metrics and the converged effective demands for warm-starting.
func solveDecomp(ctx context.Context, m NetworkModel, opts DecompOptions, warm []float64, ws *decompWorkspace) (NetworkMetrics, []float64, error) {
	opts, maps, d, ws, err := prepareDecomp(m, opts, warm, ws)
	if err != nil {
		return NetworkMetrics{}, nil, err
	}
	iterations, residual, err := ws.fixedPoint(ctx, m, opts, d)
	if err != nil {
		return NetworkMetrics{}, nil, err
	}
	met, err := collectDecompMetrics(m, maps, ws.sols, iterations, residual)
	if err != nil {
		return NetworkMetrics{}, nil, err
	}
	return met, d, nil
}

// prepareDecomp validates m and opts, binds every station chain of ws
// (allocated when nil) and returns the effective MAP per station and
// the starting demands: warm where it holds a usable value, else the
// MAP mean demands (the product-form fixed point).
func prepareDecomp(m NetworkModel, opts DecompOptions, warm []float64, ws *decompWorkspace) (DecompOptions, []*markov.MAP, []float64, *decompWorkspace, error) {
	if err := m.Validate(); err != nil {
		return opts, nil, nil, nil, err
	}
	opts, err := opts.withDefaults()
	if err != nil {
		return opts, nil, nil, nil, err
	}
	k := len(m.Stations)
	maps := make([]*markov.MAP, k)
	d := make([]float64, k) // mean demand per station (visits folded)
	for i, st := range m.Stations {
		em, mapErr := st.effectiveMAP()
		if mapErr != nil {
			return opts, nil, nil, nil, fmt.Errorf("mapqn: station %d (%s): %w", i, st.Name, mapErr)
		}
		maps[i] = em
		d[i] = em.Mean()
		if !(d[i] > 0) {
			return opts, nil, nil, nil, fmt.Errorf("mapqn: station %d (%s) has non-positive mean demand", i, st.Name)
		}
	}
	if ws == nil {
		ws = newDecompWorkspace(k, m.Customers)
	}
	for i, mp := range maps {
		ws.chains[i].bind(mp, ws.capN, m.PhasesRunWhileIdle)
	}
	if len(warm) == k {
		for i, w := range warm {
			if w > 0 && !math.IsNaN(w) && !math.IsInf(w, 0) {
				d[i] = w
			}
		}
	}
	return opts, maps, d, ws, nil
}

// fixedPoint iterates the effective demands d in place until the
// largest relative gap |G(d) - d| / d falls below opts.Tol, and returns
// the iterations taken and that residual. On return ws.sols hold the
// chain solutions at the final d, the iterate the residual was measured
// at. Exhausting opts.MaxIter returns an error wrapping
// ctmc.ErrNoConvergence. Every iteration runs inside ws and allocates
// nothing.
func (ws *decompWorkspace) fixedPoint(ctx context.Context, m NetworkModel, opts DecompOptions, d []float64) (int, float64, error) {
	ws.mix.reset(d)
	residual := math.Inf(1)
	for iter := 1; iter <= opts.MaxIter; iter++ {
		if err := ctx.Err(); err != nil {
			return iter, residual, err
		}
		var err error
		if residual, err = ws.evaluate(m, d); err != nil {
			return iter, residual, err
		}
		if residual < opts.Tol || len(d) == 1 {
			// K=1 has no coupling: the single chain is already the exact
			// CTMC, so one pass is the answer.
			return iter, residual, nil
		}
		ws.mix.step(d, ws.targets, opts.Damping)
	}
	return opts.MaxIter, residual, fmt.Errorf(
		"mapqn: decomposition fixed point residual %.3g after %d iterations (tol %.3g): %w",
		residual, opts.MaxIter, opts.Tol, ctmc.ErrNoConvergence)
}

// evaluate applies the fixed-point map once: it solves every station's
// chain against its complement network at demands d, stores the
// solutions in ws.sols and the target demands G(d) in ws.targets, and
// returns the largest relative gap |G(d) - d| / d.
func (ws *decompWorkspace) evaluate(m NetworkModel, d []float64) (float64, error) {
	n := m.Customers
	lam := ws.lam[:n]
	residual := 0.0
	for i := range d {
		if err := ws.complementRates(m, d, i); err != nil {
			return residual, err
		}
		sol, err := ws.chains[i].solve(lam, n)
		if err != nil {
			return residual, fmt.Errorf("mapqn: station %d (%s): %w", i, m.Stations[i].Name, err)
		}
		ws.sols[i] = sol

		// Fixed-point target (Marie's method): calibrate the exponential
		// surrogate so it reproduces the MAP chain's residence time under
		// the same arrivals. R_exp(lam, d) is monotone increasing in d, so
		// the target is found directly by a bracketed root search instead
		// of iterating the (potentially unstable) ratio map.
		ws.targets[i] = invertResidence(lam, n, sol.resMAP, d[i])
		if rel := math.Abs(ws.targets[i]-d[i]) / d[i]; rel > residual {
			residual = rel
		}
	}
	return residual, nil
}

// andersonDepth caps how many past iterates the demand update mixes. It
// is fixed: the demand vector has one entry per station, so a handful of
// differences already spans most of it.
const andersonDepth = 4

// andersonMinRank is the smallest share of a residual difference's norm
// that must remain once the older differences are projected out of it;
// below it the least-squares system counts as singular.
const andersonMinRank = 1e-10

// andersonMixer is the type-II Anderson update of the demand fixed point
// d = G(d), with every buffer sized once per workspace. It works on the
// demands scaled by the solve's starting demands, x = d / d0, so every
// station weighs alike in the least squares: with residuals
// f = (G(d) - d) / d0 and the last m differences dX, dF of iterates and
// residuals, the step is
//
//	x' = x + beta*f - (dX + beta*dF)*gamma,  gamma = argmin |f - dF*gamma|,
//
// where beta is DecompOptions.Damping. With no history it is the plain
// damped step d' = d + beta*(G(d) - d), which is also the fallback, with
// the history cleared, when the least squares is singular or a proposed
// demand is not finite and positive.
type andersonMixer struct {
	k, depth     int
	scale        []float64 // starting demands d0
	x, f         []float64 // scaled iterate and residual; x then holds the proposal
	prevX, prevF []float64 // the previous step's x and f
	havePrev     bool
	dx, df       []float64 // ring of depth difference columns, column c at [c*k, (c+1)*k)
	next, count  int       // ring slot written next, columns held
	q            []float64 // count orthonormalized dF columns (modified Gram-Schmidt)
	r            []float64 // depth-by-depth upper triangle, row-major
	gamma        []float64
}

// newAndersonMixer carves every buffer of a k-station mixer out of one
// allocation.
func newAndersonMixer(k int) andersonMixer {
	depth := min(k, andersonDepth)
	buf := make([]float64, 5*k+3*depth*k+depth*depth+depth)
	take := func(n int) []float64 {
		s := buf[:n:n]
		buf = buf[n:]
		return s
	}
	return andersonMixer{
		k: k, depth: depth,
		scale: take(k), x: take(k), f: take(k), prevX: take(k), prevF: take(k),
		dx: take(depth * k), df: take(depth * k), q: take(depth * k),
		r: take(depth * depth), gamma: take(depth),
	}
}

// reset starts a solve from demands d0, dropping any history.
func (a *andersonMixer) reset(d0 []float64) {
	copy(a.scale, d0)
	a.havePrev, a.next, a.count = false, 0, 0
}

// step moves d, whose fixed-point targets are g, to the next iterate.
func (a *andersonMixer) step(d, g []float64, beta float64) {
	k := a.k
	for i := range d {
		a.x[i] = d[i] / a.scale[i]
		a.f[i] = (g[i] - d[i]) / a.scale[i]
	}
	if a.havePrev {
		c := a.next * k
		for i := 0; i < k; i++ {
			a.dx[c+i] = a.x[i] - a.prevX[i]
			a.df[c+i] = a.f[i] - a.prevF[i]
		}
		a.next = (a.next + 1) % a.depth
		a.count = min(a.count+1, a.depth)
	}
	copy(a.prevX, a.x)
	copy(a.prevF, a.f)
	a.havePrev = true
	if a.count > 0 && a.leastSquares() && a.propose(beta) {
		copy(d, a.x)
		return
	}
	a.count = 0
	for i := range d {
		d[i] += beta * (g[i] - d[i])
	}
}

// column returns the ring slot of the j-th history column, oldest first.
func (a *andersonMixer) column(j int) int {
	return (a.next - a.count + j + a.depth) % a.depth
}

// leastSquares solves min |f - dF*gamma| into a.gamma by a modified
// Gram-Schmidt QR of the history columns, and reports false when a
// column is (numerically) in the span of the others or gamma is not
// finite.
func (a *andersonMixer) leastSquares() bool {
	k, cnt := a.k, a.count
	for j := 0; j < cnt; j++ {
		c := a.column(j) * k
		qj := a.q[j*k : (j+1)*k]
		copy(qj, a.df[c:c+k])
		norm0 := norm2(qj)
		for i := 0; i < j; i++ {
			qi := a.q[i*k : (i+1)*k]
			rij := dot(qi, qj)
			a.r[i*a.depth+j] = rij
			for p := range qj {
				qj[p] -= rij * qi[p]
			}
		}
		rjj := norm2(qj)
		if !(rjj > andersonMinRank*norm0) {
			return false
		}
		a.r[j*a.depth+j] = rjj
		for p := range qj {
			qj[p] /= rjj
		}
	}
	for j := cnt - 1; j >= 0; j-- {
		v := dot(a.q[j*k:(j+1)*k], a.f)
		for i := j + 1; i < cnt; i++ {
			v -= a.r[j*a.depth+i] * a.gamma[i]
		}
		v /= a.r[j*a.depth+j]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
		a.gamma[j] = v
	}
	return true
}

// propose writes the Anderson step's demands into a.x and reports
// whether every one is finite and positive.
func (a *andersonMixer) propose(beta float64) bool {
	k := a.k
	for i := 0; i < k; i++ {
		v := a.x[i] + beta*a.f[i]
		for j := 0; j < a.count; j++ {
			c := a.column(j) * k
			v -= a.gamma[j] * (a.dx[c+i] + beta*a.df[c+i])
		}
		v *= a.scale[i]
		if !(v > 0) || math.IsInf(v, 0) {
			return false
		}
		a.x[i] = v
	}
	return true
}

func dot(a, b []float64) float64 {
	var s float64
	for i, v := range a {
		s += v * b[i]
	}
	return s
}

func norm2(v []float64) float64 { return math.Sqrt(dot(v, v)) }

// complementRates fills ws.lam[j] with the arrival rate a station sees
// when it holds j of the N customers: the throughput of the
// flow-equivalent complement network (Norton's theorem) at population
// N-j. For K=1 the complement is the bare think pool — rate (N-j)/Z,
// with the same 1e9 sentinel the exact generator uses for Z=0 — so the
// isolated chain is the exact CTMC. For K>=2 the complement is the think
// pool plus every other station as an exponential queue at its current
// effective demand, evaluated by one exact MVA recursion (O(N*K)) whose
// throughputs go straight into lam.
func (ws *decompWorkspace) complementRates(m NetworkModel, d []float64, station int) error {
	n := m.Customers
	lam := ws.lam[:n]
	if len(m.Stations) == 1 {
		rate := 1e9
		if m.ThinkTime > 0 {
			rate = 1 / m.ThinkTime
		}
		for j := 0; j < n; j++ {
			lam[j] = float64(n-j) * rate
		}
		return nil
	}
	demands := ws.demands[:0]
	for j, dj := range d {
		if j != station {
			demands = append(demands, dj)
		}
	}
	if err := (mva.Network{Demands: demands, ThinkTime: m.ThinkTime}).Validate(); err != nil {
		return fmt.Errorf("mapqn: complement of station %d: %w", station, err)
	}
	q, resid := ws.q[:len(demands)], ws.resid[:len(demands)]
	clear(q)
	for pop := 1; pop <= n; pop++ {
		lam[n-pop], _ = mva.Step(demands, m.ThinkTime, pop, q, resid) // complement holds N-j = pop customers
	}
	return nil
}

// stationChain is one station's isolated level chain — states (j jobs,
// phase p) for j = 0..n, with arrivals lam[j] (phase-preserving),
// completions D1, phase changes D0 while busy, and the network's
// idle-phase semantics at j = 0 — together with every buffer its solve
// reuses: the constant blocks, one flat slice holding all level inverses,
// the LU workspace and the stationary vector.
type stationChain struct {
	m       int           // phases
	d0, d1  *matrix.Dense // the station's MAP, read only
	aZero   *matrix.Dense // level-0 diagonal block
	exit    []float64     // completion rate per phase (D1 row sums)
	inv     []float64     // level inverses U_j^{-1}, level j at [j*m*m, (j+1)*m*m)
	u, next *matrix.Dense // U_j and U_j^{-1}*D1 of the backward pass
	t       *matrix.Dense // boundary system: U_0 transposed, last row ones
	rhs     []float64     // boundary right-hand side e_{m-1}
	lu      *matrix.LU
	pi      []float64
}

// bind points c at mp's blocks for one solve, allocating the scratch
// (sized for populations up to capN) only when the phase count changes:
// a sweep binds the same stations at every population.
func (c *stationChain) bind(mp *markov.MAP, capN int, idleRun bool) {
	m := mp.Order()
	if c.m != m {
		*c = stationChain{
			m:    m,
			inv:  make([]float64, (capN+1)*m*m),
			u:    matrix.NewDense(m, m),
			next: matrix.NewDense(m, m),
			t:    matrix.NewDense(m, m),
			rhs:  make([]float64, m),
			lu:   matrix.NewLU(m),
			pi:   make([]float64, (capN+1)*m),
		}
		c.rhs[m-1] = 1
	}
	c.d0, c.d1, c.exit = mp.D0, mp.D1, mp.D1.RowSums()

	// Level diagonal blocks: level n is D0 (no arrivals); busy levels
	// 1 <= j < n carry D0 off-diagonals and the D0 diagonal (which
	// already debits D1 departures), with the arrival rate subtracted per
	// level in solve.
	c.aZero = matrix.NewDense(m, m)
	if idleRun {
		// Idle station with free-running phases: D0+D1 off-diagonals, no
		// completions (there is no job to complete).
		for r := 0; r < m; r++ {
			var out float64
			for col := 0; col < m; col++ {
				if col == r {
					continue
				}
				v := c.d0.At(r, col) + c.d1.At(r, col)
				c.aZero.Set(r, col, v)
				out += v
			}
			c.aZero.Set(r, r, -out)
		}
	}
}

// level returns a view of level j's inverse in c.inv.
func (c *stationChain) level(j int) matrix.Dense {
	mm := c.m * c.m
	return matrix.Dense{Rows: c.m, Cols: c.m, Data: c.inv[j*mm : (j+1)*mm]}
}

// solve computes the chain's stationary distribution at population n
// under arrivals lam. The chain is block tridiagonal with m-by-m blocks,
// solved by backward block elimination (censoring levels top-down) in
// O(n*m^3): no iteration, so there is no convergence failure mode and no
// state-space blowup. It allocates nothing; the returned solution's pi
// is c's buffer, valid until the next solve.
func (c *stationChain) solve(lam []float64, n int) (stationSolution, error) {
	m := c.m

	// Backward pass: U_n = A_n, U_j = A_j - lam[j] * U_{j+1}^{-1} * D1.
	// U_j is the generator of the chain censored on levels <= j; for
	// j >= 1 it leaks probability down through D1 and is nonsingular, so
	// its inverse both continues the recursion and later expands the
	// solution level by level.
	u, next := c.u, c.next
	copy(u.Data, c.d0.Data)
	for j := n; j >= 1; j-- {
		inv := c.level(j)
		if err := matrix.InverseTo(&inv, u, c.lu); err != nil {
			return stationSolution{}, fmt.Errorf("mapqn: station chain level %d is singular: %w", j, err)
		}
		inv.MulTo(next, c.d1)
		a := c.d0
		if j-1 == 0 {
			a = c.aZero
		}
		for r := 0; r < m; r++ {
			for col := 0; col < m; col++ {
				v := -lam[j-1] * next.At(r, col)
				v += a.At(r, col)
				if r == col {
					v -= lam[j-1]
				}
				u.Set(r, col, v)
			}
		}
	}

	// U_0 is the censored generator at level 0 (rows sum to zero):
	// pi_0 solves pi_0 * U_0 = 0. Normalize via the usual replaced-row
	// trick on the transpose.
	pi := c.pi[:(n+1)*m]
	t := c.t
	for r := 0; r < m; r++ {
		for col := 0; col < m; col++ {
			t.Set(col, r, u.At(r, col))
		}
	}
	for col := 0; col < m; col++ {
		t.Set(m-1, col, 1)
	}
	err := c.lu.Refactor(t)
	if err == nil {
		err = c.lu.SolveTo(pi[:m], c.rhs)
	}
	if err != nil {
		return stationSolution{}, fmt.Errorf("mapqn: station chain boundary solve: %w", err)
	}

	// Forward expansion: pi_j = -lam[j-1] * pi_{j-1} * U_j^{-1}. The
	// unnormalized mass can span hundreds of decades across levels on a
	// saturated station, so rescale everything computed so far whenever
	// the running level grows past 1e250.
	const rescaleAt = 1e250
	for j := 1; j <= n; j++ {
		prev := pi[(j-1)*m : j*m]
		level := pi[j*m : (j+1)*m]
		inv := c.level(j)
		inv.VecMulTo(level, prev)
		maxAbs := 0.0
		for p, v := range level {
			v *= -lam[j-1]
			level[p] = v
			if a := math.Abs(v); a > maxAbs {
				maxAbs = a
			}
		}
		if maxAbs > rescaleAt {
			for p := range pi[:(j+1)*m] {
				pi[p] /= rescaleAt
			}
		}
	}

	// Normalize, clamping the tiny negative round-off the block
	// elimination can leave on near-unreachable levels.
	var total float64
	for p, v := range pi {
		if v < 0 {
			pi[p] = 0
			continue
		}
		total += v
	}
	if !(total > 0) || math.IsInf(total, 0) || math.IsNaN(total) {
		return stationSolution{}, errors.New("mapqn: station chain produced a degenerate distribution")
	}
	sol := stationSolution{pi: pi}
	for j := 0; j <= n; j++ {
		var level float64
		for p := 0; p < m; p++ {
			v := pi[j*m+p] / total
			pi[j*m+p] = v
			level += v
			if j > 0 {
				sol.x += v * c.exit[p]
			}
		}
		if j > 0 {
			sol.util += level
			sol.qlen += float64(j) * level
		}
	}
	if !(sol.x > 0) {
		return stationSolution{}, errors.New("mapqn: station chain has zero throughput (degenerate model)")
	}
	sol.resMAP = sol.qlen / sol.x
	return sol, nil
}

// exponentialResidence is the closed-form residence time of an
// exponential (M) station with mean demand d under the same
// state-dependent arrivals lam: a birth-death chain with p(j) ~
// prod_{i<j} lam[i]*d, so X = sum p(j)/d over busy levels and R = Q/X.
// The normalization constant cancels in the ratio; the running product
// is rescaled like the MAP chain's forward pass.
func exponentialResidence(lam []float64, d float64, n int) float64 {
	const rescaleAt = 1e250
	p := 1.0
	var mass, busy, q float64
	mass = 1
	for j := 1; j <= n; j++ {
		p *= lam[j-1] * d
		if p > rescaleAt {
			scale := 1 / rescaleAt
			p *= scale
			mass *= scale
			busy *= scale
			q *= scale
		}
		mass += p
		busy += p
		q += float64(j) * p
	}
	if busy <= 0 {
		return 0
	}
	x := busy / d // sum p(j) * (1/d) over j >= 1
	return q / x
}

// invertResidence finds the exponential demand d whose birth-death
// residence time under arrivals lam equals rTarget: the unique root of
// the monotone-increasing h(d) = R_exp(lam, d) - rTarget, located by
// bracket expansion around the current demand and then Illinois regula
// falsi inside the bracket. Each probe is the secant through the
// bracket's ends; when the same end survives twice in a row its h is
// halved, so both ends close in superlinearly, and a probe that would
// not fall strictly inside the bracket is replaced by its midpoint. The
// surrogate calibrated this way reproduces the MAP chain's congestion
// exactly, so the outer fixed point only has to reconcile the (mild)
// cross-station coupling through the complement networks.
func invertResidence(lam []float64, n int, rTarget, guess float64) float64 {
	if !(rTarget > 0) || !(guess > 0) {
		return guess
	}
	lo, hi := guess, guess
	rLo := exponentialResidence(lam, lo, n)
	rHi := rLo
	for i := 0; i < 64 && rLo > rTarget; i++ {
		lo /= 2
		rLo = exponentialResidence(lam, lo, n)
	}
	for i := 0; i < 64 && rHi < rTarget; i++ {
		hi *= 2
		rHi = exponentialResidence(lam, hi, n)
	}
	if rLo > rTarget || rHi < rTarget {
		return guess // no bracket (degenerate arrivals); keep the demand
	}
	hLo, hHi := rLo-rTarget, rHi-rTarget
	side := 0 // the end the last probe replaced: -1 lo, +1 hi
	for i := 0; i < 80 && hi-lo > 1e-14*hi; i++ {
		x := (lo*hHi - hi*hLo) / (hHi - hLo)
		if !(x > lo && x < hi) {
			x = (lo + hi) / 2
		}
		h := exponentialResidence(lam, x, n) - rTarget
		switch {
		case h == 0:
			return x
		case h < 0:
			lo, hLo = x, h
			if side == -1 {
				hHi /= 2
			}
			side = -1
		default:
			hi, hHi = x, h
			if side == 1 {
				hLo /= 2
			}
			side = 1
		}
	}
	return (lo + hi) / 2
}

// collectDecompMetrics assembles NetworkMetrics from the per-station
// solutions. The system throughput is the smallest per-station estimate:
// each chain's completion rate is an exact throughput for its own view
// of the network, and the most congested view — the one whose burstiness
// inflation bites hardest — is the binding one.
func collectDecompMetrics(m NetworkModel, maps []*markov.MAP, sols []stationSolution, iterations int, residual float64) (NetworkMetrics, error) {
	k := len(sols)
	x := math.Inf(1)
	utils := make([]float64, k)
	qlens := make([]float64, k)
	dists := make([][]float64, k)
	states := 0
	var queued float64
	for i, sol := range sols {
		if sol.x < x {
			x = sol.x
		}
		utils[i] = sol.util
		qlens[i] = sol.qlen
		queued += sol.qlen
		order := maps[i].Order()
		dist := make([]float64, m.Customers+1)
		for j := 0; j <= m.Customers; j++ {
			var level float64
			for p := 0; p < order; p++ {
				level += sol.pi[j*order+p]
			}
			dist[j] = level
		}
		dists[i] = dist
		states += (m.Customers + 1) * order
	}
	if !(x > 0) || math.IsInf(x, 0) {
		return NetworkMetrics{}, errors.New("mapqn: zero throughput (degenerate model)")
	}
	return NetworkMetrics{
		Throughput:         x,
		ResponseTime:       float64(m.Customers)/x - m.ThinkTime,
		Utils:              utils,
		QueueLens:          qlens,
		QueueDists:         dists,
		Thinking:           math.Max(0, float64(m.Customers)-queued),
		StationNames:       m.StationNames(),
		States:             states,
		SolverIterations:   iterations,
		SolverMethod:       SolverMethodDecomp,
		FixedPointResidual: residual,
	}, nil
}
