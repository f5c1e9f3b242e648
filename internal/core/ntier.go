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
// The planning entry points are BuildPlanNFromCharacterizations, which
// fits a PlanN from one (mean, I, p95) characterization per tier (front,
// app, ..., db; the paper's two-tier system is the K=2 plan), and
// PlanN.SolveLadder, the one way to solve a plan. Scenario, Run and
// RunSuite build the declarative pipeline on top of them.
package core

import (
	"errors"
	"fmt"

	"repro/internal/ctmc"
	"repro/internal/inference"
	"repro/internal/mapqn"
	"repro/internal/markov"
	"repro/internal/mva"
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

// DecompOptions resolves the plan's decomposition-solver options: the
// configured ones, or defaults when the planner left them unset.
func (p *PlanN) DecompOptions() mapqn.DecompOptions {
	if p.opts.Decomp != nil {
		return *p.opts.Decomp
	}
	return mapqn.DecompOptions{}
}
