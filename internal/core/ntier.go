// Package core implements the paper's end-to-end capacity-planning
// methodology: from coarse monitoring measurements of a multi-tier
// system, build (1) the burstiness-aware MAP queueing network of
// Section 4 and (2) the classical MVA baseline of Section 3.4, and
// predict throughput, response time and utilizations as the number of
// emulated browsers grows. This is the piece a practitioner would use:
// feed it `sar`-style utilization samples and transaction counts for
// each tier, get capacity predictions that remain accurate under bursty
// workloads and bottleneck switch.
//
// The planning entry points are BuildPlanN / PlanN, which accept one
// monitoring-sample set per tier (front, app, ..., db); the paper's
// two-tier system is the K=2 plan. Scenario, Run and RunSuite build the
// declarative pipeline on top of them.
package core

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/ctmc"
	"repro/internal/inference"
	"repro/internal/mapqn"
	"repro/internal/markov"
	"repro/internal/mva"
	"repro/internal/trace"
)

// PlannerOptions tunes model construction.
type PlannerOptions struct {
	// Inference configures the measurement pipeline.
	Inference inference.Options `json:"inference,omitempty"`
	// Fit configures the MAP(2) selection (paper Section 4.1).
	Fit markov.FitOptions `json:"fit,omitempty"`
	// Solver configures the CTMC steady-state solver.
	Solver ctmc.Options `json:"solver,omitempty"`
	// Decomp configures the approximate decomposition solver's fixed
	// point (nil for defaults). A pointer so that scenarios not touching
	// it keep their canonical JSON — and therefore their content hashes —
	// unchanged.
	Decomp *mapqn.DecompOptions `json:"decomp,omitempty"`
	// TierNames optionally labels the tiers of an N-tier plan (one per
	// tier, in visit order). Empty uses front/app.../db defaults.
	TierNames []string `json:"tier_names,omitempty"`
}

// Tier is one tier of an N-tier capacity plan: the measured service
// characterization, the fitted MAP(2) service process, and the visit
// ratio with which requests hit the tier.
type Tier struct {
	// Name labels the tier ("front", "app", "db", ...).
	Name string
	// Characterization is the inferred (mean, I, p95) service description.
	Characterization inference.Characterization
	// Fit is the fitted MAP(2) service process.
	Fit markov.FitResult
	// Visits is the tier's visit ratio per think-to-think cycle (1 when
	// every request passes the tier exactly once).
	Visits float64
}

// Demand returns the tier's aggregate mean service demand per cycle.
func (t Tier) Demand() float64 { return t.Visits * t.Characterization.MeanServiceTime }

// PlanN is a parameterized capacity-planning model for a K-tier system.
// Tiers are visited in slice order.
type PlanN struct {
	// Tiers are the characterized and fitted tiers in visit order.
	Tiers []Tier
	// ThinkTime is the think time Z_qn the model will be evaluated with.
	ThinkTime float64

	opts PlannerOptions
}

// tierNames resolves tier labels: explicit names win, then the paper's
// front/db convention for two tiers, then front/app.../db for deeper
// chains. The defaults must stay in sync with tpcw's resolveTierNames so
// simulator and planner labels agree when neither is given explicit names.
func tierNames(k int, explicit []string) ([]string, error) {
	if len(explicit) != 0 {
		if len(explicit) != k {
			return nil, fmt.Errorf("core: %d tier names for %d tiers", len(explicit), k)
		}
		return append([]string(nil), explicit...), nil
	}
	names := make([]string, k)
	for i := range names {
		switch {
		case i == 0:
			names[i] = "front"
		case i == k-1:
			names[i] = "db"
		case k == 3:
			names[i] = "app"
		default:
			names[i] = fmt.Sprintf("app%d", i)
		}
	}
	if k == 1 {
		names[0] = "server"
	}
	return names, nil
}

// DefaultTierNames returns the positional tier labels for a K-tier
// system: front, app..., db (server for K=1) — the convention shared by
// the planner, the simulator, and scenario reports.
func DefaultTierNames(k int) []string {
	names, _ := tierNames(k, nil) // tierNames errors only on explicit-name mismatch
	return names
}

// BuildPlanN runs the full Section 4 pipeline for a K-tier system:
// characterize each tier from its monitoring samples (mean, I, p95),
// then fit a MAP(2) per tier. tiers[0] is the first tier a request hits;
// thinkTime is the Z_qn the resulting model will be evaluated at, which
// may differ from the think time of the measured system (Z_estim) — the
// paper exploits exactly this to improve estimation granularity
// (Fig. 11). Tier labels come from opts.TierNames when set.
func BuildPlanN(tiers []trace.UtilizationSamples, thinkTime float64, opts PlannerOptions) (*PlanN, error) {
	if len(tiers) == 0 {
		return nil, errors.New("core: no tiers to plan for")
	}
	chars, err := inference.CharacterizeAll(tiers, opts.Inference)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	return BuildPlanNFromCharacterizations(chars, nil, thinkTime, opts, nil)
}

// BuildPlanNFromCharacterizations skips the measurement step, fitting a
// MAP(2) per tier from already-computed characterizations. visits holds
// the per-tier visit ratios (nil, or a non-positive entry, means one
// visit per cycle). With a non-nil memo each fit is memoized by its
// (characterization, fit options) key, so a suite fits every distinct
// tier spec exactly once; a nil memo fits directly and computes no key.
func BuildPlanNFromCharacterizations(chars []inference.Characterization, visits []float64, thinkTime float64, opts PlannerOptions, memo *Memo) (*PlanN, error) {
	if thinkTime <= 0 {
		return nil, fmt.Errorf("core: think time %v must be > 0", thinkTime)
	}
	if len(chars) == 0 {
		return nil, errors.New("core: no tiers to plan for")
	}
	if visits != nil && len(visits) != len(chars) {
		return nil, fmt.Errorf("core: %d visit ratios for %d tiers", len(visits), len(chars))
	}
	names, err := tierNames(len(chars), opts.TierNames)
	if err != nil {
		return nil, err
	}
	plan := &PlanN{ThinkTime: thinkTime, opts: opts, Tiers: make([]Tier, len(chars))}
	for i, c := range chars {
		if err := c.Validate(); err != nil {
			return nil, fmt.Errorf("core: %s characterization: %w", names[i], err)
		}
		var key string
		if memo != nil {
			key, err = HashJSON(struct {
				Mean float64           `json:"mean"`
				I    float64           `json:"i"`
				P95  float64           `json:"p95"`
				Fit  markov.FitOptions `json:"fit"`
			}{c.MeanServiceTime, c.IndexOfDispersion, c.P95ServiceTime, opts.Fit})
			if err != nil {
				return nil, fmt.Errorf("core: %s MAP fit: %w", names[i], err)
			}
		}
		fit, err := memo.Fit(key, func() (markov.FitResult, error) {
			return markov.FitThreePoint(c.MeanServiceTime, c.IndexOfDispersion, c.P95ServiceTime, opts.Fit)
		})
		if err != nil {
			return nil, fmt.Errorf("core: %s MAP fit: %w", names[i], err)
		}
		v := 1.0
		if visits != nil && visits[i] > 0 {
			v = visits[i]
		}
		plan.Tiers[i] = Tier{Name: names[i], Characterization: c, Fit: fit, Visits: v}
	}
	return plan, nil
}

// Stations assembles the MAP network stations of the plan.
func (p *PlanN) Stations() []mapqn.Station {
	out := make([]mapqn.Station, len(p.Tiers))
	for i, t := range p.Tiers {
		out[i] = mapqn.Station{Name: t.Name, MAP: t.Fit.MAP, Visits: t.Visits}
	}
	return out
}

// Baseline builds the classical MVA network over the tiers' mean
// demands — the burstiness-blind model of Section 3.4.
func (p *PlanN) Baseline() mva.Network {
	demands := make([]float64, len(p.Tiers))
	names := make([]string, len(p.Tiers))
	for i, t := range p.Tiers {
		demands[i] = t.Demand()
		names[i] = t.Name
	}
	return mva.ModelN(demands, names, p.ThinkTime)
}

// PredictionN is the N-tier model output at one population level.
type PredictionN struct {
	EBs int
	// MAP holds the burstiness-aware model's per-station metrics.
	MAP mapqn.NetworkMetrics
	// MVA holds the product-form baseline's metrics.
	MVA mva.Result
}

// Predict evaluates both models at each population level. The MAP-model
// evaluations run as one warm-started sweep: each population's CTMC
// solve is seeded with the previous population's stationary vector.
func (p *PlanN) Predict(populations []int) ([]PredictionN, error) {
	return p.PredictCtx(context.Background(), populations, nil)
}

// PredictCtx is Predict with cooperative cancellation and an optional
// per-population progress callback (nil to disable). A canceled sweep
// returns ctx.Err() within one population step.
func (p *PlanN) PredictCtx(ctx context.Context, populations []int, progress mapqn.SweepProgress) ([]PredictionN, error) {
	if len(populations) == 0 {
		return nil, errors.New("core: no populations requested")
	}
	for _, n := range populations {
		if n < 1 {
			return nil, fmt.Errorf("core: population %d must be >= 1", n)
		}
	}
	baseline := p.Baseline()
	mets, err := mapqn.SolveNetworkSweepCtx(ctx, p.Stations(), p.ThinkTime, populations, p.opts.Solver, progress)
	if err != nil {
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		return nil, fmt.Errorf("core: MAP model: %w", err)
	}
	out := make([]PredictionN, 0, len(populations))
	for i, n := range populations {
		base, err := mva.Solve(baseline, n)
		if err != nil {
			return nil, fmt.Errorf("core: MVA at %d EBs: %w", n, err)
		}
		out = append(out, PredictionN{EBs: n, MAP: mets[i], MVA: base})
	}
	return out, nil
}

// DecompOptions resolves the plan's decomposition-solver options: the
// configured ones, or defaults when the planner left them unset.
func (p *PlanN) DecompOptions() mapqn.DecompOptions {
	if p.opts.Decomp != nil {
		return *p.opts.Decomp
	}
	return mapqn.DecompOptions{}
}

// PredictDecompCtx evaluates the approximate decomposition model at each
// population level as one warm-started sweep (consecutive populations
// seed each other's demand fixed points), with cooperative cancellation
// and an optional per-population progress callback (nil to disable).
func (p *PlanN) PredictDecompCtx(ctx context.Context, populations []int, progress mapqn.SweepProgress) ([]mapqn.NetworkMetrics, error) {
	if len(populations) == 0 {
		return nil, errors.New("core: no populations requested")
	}
	for _, n := range populations {
		if n < 1 {
			return nil, fmt.Errorf("core: population %d must be >= 1", n)
		}
	}
	mets, err := mapqn.SolveNetworkDecompSweepCtx(ctx, p.Stations(), p.ThinkTime, populations, p.DecompOptions(), progress)
	if err != nil {
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		return nil, fmt.Errorf("core: decomp model: %w", err)
	}
	return mets, nil
}

// Bounds brackets the MAP network's throughput at each population with
// two O(N*K) product-form evaluations, usable far beyond exact CTMC
// reach.
func (p *PlanN) Bounds(populations []int) ([]mapqn.NetworkBoundsResult, error) {
	if len(populations) == 0 {
		return nil, errors.New("core: no populations requested")
	}
	return mapqn.NetworkBoundsSweep(p.Stations(), p.ThinkTime, populations)
}

// Accuracy compares predicted against measured throughput, returning the
// relative errors of the MAP model and the MVA baseline — the error bars
// the paper reports in Figs. 10-12.
type Accuracy struct {
	EBs              int
	Measured         float64
	MAPPredicted     float64
	MVAPredicted     float64
	MAPRelativeError float64
	MVARelativeError float64
}

// Compare evaluates both models against measured throughputs.
// populations and measured must have equal lengths.
func (p *PlanN) Compare(populations []int, measured []float64) ([]Accuracy, error) {
	if len(populations) != len(measured) {
		return nil, fmt.Errorf("core: %d populations vs %d measurements", len(populations), len(measured))
	}
	preds, err := p.Predict(populations)
	if err != nil {
		return nil, err
	}
	out := make([]Accuracy, len(preds))
	for i, pr := range preds {
		if measured[i] <= 0 {
			return nil, fmt.Errorf("core: measured throughput %v at %d EBs invalid", measured[i], pr.EBs)
		}
		out[i] = Accuracy{
			EBs:              pr.EBs,
			Measured:         measured[i],
			MAPPredicted:     pr.MAP.Throughput,
			MVAPredicted:     pr.MVA.Throughput,
			MAPRelativeError: relErr(pr.MAP.Throughput, measured[i]),
			MVARelativeError: relErr(pr.MVA.Throughput, measured[i]),
		}
	}
	return out, nil
}

func relErr(pred, actual float64) float64 {
	d := pred - actual
	if d < 0 {
		d = -d
	}
	return d / actual
}
