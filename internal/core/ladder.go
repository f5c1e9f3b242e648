package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"

	"repro/internal/ctmc"
	"repro/internal/inference"
	"repro/internal/mapqn"
	"repro/internal/markov"
	"repro/internal/mva"
)

// solverTier is one rung of the model-solver ladder: a population sweep
// that fills one PopulationReport column, and what happens when it fails.
type solverTier struct {
	kind  SolverKind
	stage string // tags the tier's progress events and errors
	label string // names the tier in FallbackReason when it fails or answers
	// hooked tiers fire the fault hook, once per run, before the first
	// of them solves.
	hooked bool
	// degrades marks the tier whose requested solve, on a failure a
	// cheaper tier can still answer, hops to fallback instead of failing
	// the run. A tier solving as a fallback hops on whatever its error.
	degrades bool
	fallback SolverKind // "" for the last rung
	// carries is a second column the tier's sweep also answers, filled
	// when requested so it needs no solve of its own: the exact sweep
	// carries the MVA baseline.
	carries SolverKind
	// solve runs the sweep at pops, calling step after each population it
	// solves, and fills the tier's column in rep (and the carried column,
	// when carry is set).
	solve func(p *PlanN, ctx context.Context, pops []int, rep *Report, memo *Memo, step func(i int), carry bool) error
}

// rung builds a tier's solve from its typed sweep and column filler.
// Tiers with key options memoize their whole sweep under
// PlanN.sweepKey; a memo hit replays no progress steps.
func rung[T any](t solverTier, options func(*PlanN) any, sweep func(p *PlanN, ctx context.Context, pops []int, step func(i int)) ([]T, error), fill func(r *PopulationReport, v T, carry bool)) solverTier {
	t.solve = func(p *PlanN, ctx context.Context, pops []int, rep *Report, memo *Memo, step func(i int), carry bool) error {
		var key string
		if options == nil {
			memo = nil // unkeyed tiers always solve cold
		} else if memo != nil {
			var err error
			if key, err = p.sweepKey(t.kind, options(p), pops); err != nil {
				return err
			}
		}
		vals, err := MemoRetry(ctx, func() ([]T, error) {
			return lookup(memo, memoSolve, key, func() ([]T, error) { return sweep(p, ctx, pops, step) })
		})
		if err != nil {
			return err
		}
		for i := range vals {
			fill(&rep.Results[i], vals[i], carry)
		}
		return nil
	}
	return t
}

// sweepProgress adapts a ladder step to a mapqn sweep callback.
func sweepProgress(step func(i int)) mapqn.SweepProgress {
	return func(idx, _ int, _ mapqn.NetworkMetrics) { step(idx) }
}

// solverLadder is the model-solver ladder in solve order: a requested
// decomp runs before map so a healthy run can record DecompError, the
// MVA baseline next, bounds last. The fallback chain is map → decomp →
// bounds.
var solverLadder = []solverTier{
	rung(solverTier{kind: SolverDecomp, stage: StageSolve, label: "decomp approximation", hooked: true, fallback: SolverBounds},
		func(p *PlanN) any { return p.DecompOptions() },
		func(p *PlanN, ctx context.Context, pops []int, step func(int)) ([]mapqn.NetworkMetrics, error) {
			return p.PredictDecompCtx(ctx, pops, sweepProgress(step))
		},
		func(r *PopulationReport, m mapqn.NetworkMetrics, _ bool) { r.Decomp = &m }),
	rung(solverTier{kind: SolverMAP, stage: StageSolve, label: "exact MAP solve", hooked: true, degrades: true, fallback: SolverDecomp, carries: SolverMVA},
		func(p *PlanN) any { return p.opts.Solver },
		func(p *PlanN, ctx context.Context, pops []int, step func(int)) ([]PredictionN, error) {
			return p.PredictCtx(ctx, pops, sweepProgress(step))
		},
		func(r *PopulationReport, pr PredictionN, carry bool) {
			r.MAP = &pr.MAP
			if carry {
				r.MVA = &pr.MVA
			}
		}),
	rung(solverTier{kind: SolverMVA, stage: StageSolve},
		nil,
		func(p *PlanN, _ context.Context, pops []int, _ func(int)) ([]mva.Result, error) {
			return MVASweep(p.Baseline(), pops)
		},
		func(r *PopulationReport, m mva.Result, _ bool) { r.MVA = &m }),
	rung(solverTier{kind: SolverBounds, stage: StageBounds, label: "NetworkBounds"},
		nil,
		func(p *PlanN, _ context.Context, pops []int, step func(int)) ([]mapqn.NetworkBoundsResult, error) {
			bounds, err := p.Bounds(pops)
			for i := range bounds {
				step(i)
			}
			return bounds, err
		},
		func(r *PopulationReport, b mapqn.NetworkBoundsResult, _ bool) { r.Bounds = &b }),
}

// SolveLadder fills rep's model columns for every solver in wants by
// walking the solver ladder. It is the one place that decides how a
// report degrades:
//
//   - Requested tiers run in ladder order under ctx at every population
//     of rep.Results, memoized through memo (nil solves cold). emit (nil
//     to disable) observes one event per solved population; fire (nil
//     to disable) is the fault hook, called with StageSolve before the
//     first exact or decomp solve.
//   - When the exact MAP solve fails for a reason a cheaper tier can
//     still answer — non-convergence, a state space over the backend
//     limit, or ctx's deadline expiring while parent is alive — the
//     report degrades: rep.Degraded is set, the fallback chain solves
//     under parent until a tier answers (a requested decomp already
//     filled stands in), and rep.FallbackReason records the cause and
//     each hop. A fallback canceled because parent is done aborts the
//     run with parent's error.
//   - Any other failure, including every failure of a requested decomp,
//     fails the run, tagged with the tier's stage.
//
// Populations with both the exact and the decomp column record their
// relative throughput gap as DecompError.
func (p *PlanN) SolveLadder(ctx, parent context.Context, rep *Report, wants []SolverKind, memo *Memo, emit ProgressFunc, fire func(stage string) error) error {
	pops := make([]int, len(rep.Results))
	for i, r := range rep.Results {
		pops[i] = r.Population
	}
	done := map[SolverKind]bool{}
	run := func(ctx context.Context, t *solverTier) error {
		carry := t.carries != "" && slices.Contains(wants, t.carries)
		err := t.solve(p, ctx, pops, rep, memo, func(i int) {
			if emit != nil {
				emit(ProgressEvent{Stage: t.stage, Population: pops[i], Step: i + 1, Total: len(pops)})
			}
		}, carry)
		if err != nil {
			return err
		}
		done[t.kind] = true
		if carry {
			done[t.carries] = true
		}
		return nil
	}
	fired := false
	for i := range solverLadder {
		t := &solverLadder[i]
		if !slices.Contains(wants, t.kind) || done[t.kind] {
			continue
		}
		if t.hooked && !fired && fire != nil {
			fired = true
			if err := MarkStage(fire(t.stage), t.stage); err != nil {
				return err
			}
		}
		err := run(ctx, t)
		if err == nil {
			continue
		}
		reason, ok := t.degradable(parent, err)
		if !ok {
			return MarkStage(err, t.stage)
		}
		rep.Degraded = true
		for f := ladderTier(t.fallback); ; f = ladderTier(f.fallback) {
			if done[f.kind] {
				reason += "; the " + f.label + " stands in for the exact columns"
				break
			}
			err := run(parent, f)
			if err == nil {
				reason += "; " + f.label + " reported instead"
				break
			}
			if IsCancellation(err) && parent.Err() != nil {
				return parent.Err()
			}
			if f.fallback == "" {
				return MarkStage(fmt.Errorf("core: %s fallback: %w", f.kind, err), f.stage)
			}
			reason += fmt.Sprintf("; %s fallback also failed (%v)", f.kind, err)
		}
		rep.FallbackReason = reason
	}
	for i := range rep.Results {
		r := &rep.Results[i]
		if r.MAP != nil && r.Decomp != nil && r.MAP.Throughput > 0 {
			r.DecompError = math.Abs(r.Decomp.Throughput-r.MAP.Throughput) / r.MAP.Throughput
		}
	}
	return nil
}

// ladderTier returns the ladder entry of kind k.
func ladderTier(k SolverKind) *solverTier {
	return &solverLadder[slices.IndexFunc(solverLadder, func(t solverTier) bool { return t.kind == k })]
}

// degradable decides whether a failed requested solve degrades down the
// ladder, and says why: deterministic solver reasons (non-convergence,
// state-space limit) always qualify; a deadline expiry qualifies only
// while parent is alive, i.e. the scenario's own deadline ran out, not
// the caller's.
func (t *solverTier) degradable(parent context.Context, err error) (string, bool) {
	switch {
	case !t.degrades:
		return "", false
	case errors.Is(err, ctmc.ErrNoConvergence):
		return t.label + " did not converge: " + err.Error(), true
	case errors.Is(err, mapqn.ErrStateLimit):
		return "state space over the solver limit: " + err.Error(), true
	case errors.Is(err, context.DeadlineExceeded) && parent.Err() == nil:
		return "scenario deadline expired during the " + t.label, true
	}
	return "", false
}

// sweepKey is the memo key of a tier's population sweep: the solver
// kind and its options plus the full model identity (tier
// characterizations, names, visits, think time, populations, fit
// options), so exact and decomp sweeps of one model never collide.
func (p *PlanN) sweepKey(kind SolverKind, options any, pops []int) (string, error) {
	type tierKey struct {
		Name   string                     `json:"name"`
		Char   inference.Characterization `json:"char"`
		Visits float64                    `json:"visits"`
	}
	tiers := make([]tierKey, len(p.Tiers))
	for i, t := range p.Tiers {
		tiers[i] = tierKey{Name: t.Name, Char: t.Characterization, Visits: t.Visits}
	}
	key, err := HashJSON(struct {
		Solver      SolverKind        `json:"solver"`
		Options     any               `json:"options"`
		Tiers       []tierKey         `json:"tiers"`
		ThinkTime   float64           `json:"think_time"`
		Populations []int             `json:"populations"`
		Fit         markov.FitOptions `json:"fit"`
	}{kind, options, tiers, p.ThinkTime, pops, p.opts.Fit})
	if err != nil {
		return "", fmt.Errorf("core: %s sweep key: %w", kind, err)
	}
	return key, nil
}

// MVASweep solves the product-form baseline at each population.
func MVASweep(net mva.Network, populations []int) ([]mva.Result, error) {
	out := make([]mva.Result, len(populations))
	for i, n := range populations {
		res, err := mva.Solve(net, n)
		if err != nil {
			return nil, fmt.Errorf("core: MVA at %d EBs: %w", n, err)
		}
		out[i] = res
	}
	return out, nil
}
