package experiments

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/inference"
	"repro/internal/mva"
	"repro/internal/stats"
	"repro/internal/tpcw"
)

// AccuracyRow is one point of a model-vs-measurement comparison
// (Figs. 10-12).
type AccuracyRow struct {
	Mix      string
	EBs      int
	Measured float64
	MVA      float64
	MVAErr   float64
	// MAPModel and MAPErr are zero for MVA-only experiments (Fig. 10).
	MAPModel float64
	MAPErr   float64
}

// fitCharacterizations runs a fitting experiment at the given Zestim and
// characterizes both tiers, front first.
func fitCharacterizations(mix tpcw.Mix, zEstim float64, ebs int, seed int64, scale Scale) ([]inference.Characterization, error) {
	cfg, err := scale.fitConfig(mix, zEstim, ebs, seed)
	if err != nil {
		return nil, err
	}
	run, err := tpcw.RunN(cfg)
	if err != nil {
		return nil, fmt.Errorf("experiments: fitting run %s Zestim=%v: %w", mix.Name, zEstim, err)
	}
	chars, err := inference.CharacterizeAll(run.TierSamples, inference.Options{})
	if err != nil {
		return nil, fmt.Errorf("experiments: characterization: %w", err)
	}
	return chars, nil
}

// twoTierPlan fits the paper's front+DB MAP(2) plan from the two tiers'
// characterizations, to be evaluated at Zqn = 0.5 s.
func twoTierPlan(chars []inference.Characterization, scale Scale) (*core.PlanN, error) {
	return core.BuildPlanNFromCharacterizations(chars, nil, 0.5, core.PlannerOptions{
		Solver:    solverOpts(scale),
		Fit:       fitOpts(),
		TierNames: []string{"front", "db"},
	}, nil)
}

// solvePlan walks the plan's solver ladder for wants at each population,
// as cross-validation does, and returns one report row per population.
// A figure needs the requested models themselves, so a degraded report
// is an error.
func solvePlan(plan *core.PlanN, populations []int, wants ...core.SolverKind) ([]core.PopulationReport, error) {
	rep := &core.Report{Results: make([]core.PopulationReport, len(populations))}
	for i, n := range populations {
		rep.Results[i].Population = n
	}
	ctx := context.Background()
	if err := plan.SolveLadder(ctx, ctx, rep, wants, nil, nil, nil); err != nil {
		return nil, err
	}
	if rep.Degraded {
		return nil, fmt.Errorf("experiments: model solve degraded: %s", rep.FallbackReason)
	}
	return rep.Results, nil
}

// meanDemands is the MVA baseline's input: each tier's mean service
// time, front first.
func meanDemands(chars []inference.Characterization) []float64 {
	out := make([]float64, len(chars))
	for i, c := range chars {
		out[i] = c.MeanServiceTime
	}
	return out
}

// Figure10 compares MVA predictions (parameterized by mean demands only,
// as in Section 3.4) against measured throughput for the three mixes.
// The paper's headline: up to ~36% error for the browsing mix, small
// errors for shopping and ordering.
func Figure10(seed int64, scale Scale, populations []int) ([]AccuracyRow, error) {
	if len(populations) == 0 {
		populations = []int{25, 50, 75, 100, 125, 150}
	}
	suite := measurementSuite("figure10", scale, standardMixNames(), 0.5, populations, seed+1000)
	srep, err := runMeasurement(suite, 13)
	if err != nil {
		return nil, fmt.Errorf("experiments: figure 10: %w", err)
	}
	measured := measuredThroughputs(srep)
	var rows []AccuracyRow
	for m, mix := range tpcw.StandardMixes() {
		chars, err := fitCharacterizations(mix, 0.5, 50, seed, scale)
		if err != nil {
			return nil, err
		}
		preds, err := core.MVASweep(mva.ModelN(meanDemands(chars), []string{"front", "db"}, 0.5), populations)
		if err != nil {
			return nil, err
		}
		for i, pred := range preds {
			meas := measured[m*len(populations)+i]
			rows = append(rows, AccuracyRow{
				Mix: mix.Name, EBs: pred.Customers,
				Measured: meas,
				MVA:      pred.Throughput,
				MVAErr:   stats.RelativeError(pred.Throughput, meas),
			})
		}
	}
	return rows, nil
}

// Figure11Row compares models fitted at different measurement
// granularities (Zestim) for the browsing mix.
type Figure11Row struct {
	EBs        int
	Measured   float64
	ModelZ05   float64 // fitted from Zestim = 0.5 s data
	ErrZ05     float64
	ModelZ7    float64 // fitted from Zestim = 7 s data
	ErrZ7      float64
	PaperErr05 float64
	PaperErr7  float64
}

// Figure11 reproduces the granularity experiment of Fig. 11: MAP(2)s are
// fitted from 50-EB browsing-mix runs at Zestim = 0.5 s and Zestim = 7 s,
// and both models predict throughput at Zqn = 0.5 s.
func Figure11(seed int64, scale Scale, populations []int) ([]Figure11Row, error) {
	if len(populations) == 0 {
		populations = []int{25, 75, 150}
	}
	paperErr := map[int][2]float64{
		25:  {0.095, 0.024},
		75:  {0.095, 0.046},
		150: {0.061, 0.043},
	}
	mix := tpcw.BrowsingMix()
	planAt := func(zEstim float64) (*core.PlanN, error) {
		chars, err := fitCharacterizations(mix, zEstim, 50, seed, scale)
		if err != nil {
			return nil, err
		}
		return twoTierPlan(chars, scale)
	}
	plan05, err := planAt(0.5)
	if err != nil {
		return nil, err
	}
	plan7, err := planAt(7)
	if err != nil {
		return nil, err
	}
	suite := measurementSuite("figure11", scale, []string{mix.Name}, 0.5, populations, seed+2000)
	srep, err := runMeasurement(suite, 13)
	if err != nil {
		return nil, fmt.Errorf("experiments: figure 11: %w", err)
	}
	measured := measuredThroughputs(srep)
	preds05, err := solvePlan(plan05, populations, core.SolverMAP)
	if err != nil {
		return nil, err
	}
	preds7, err := solvePlan(plan7, populations, core.SolverMAP)
	if err != nil {
		return nil, err
	}
	rows := make([]Figure11Row, len(populations))
	for i, n := range populations {
		pp := paperErr[n]
		rows[i] = Figure11Row{
			EBs:        n,
			Measured:   measured[i],
			ModelZ05:   preds05[i].MAP.Throughput,
			ErrZ05:     stats.RelativeError(preds05[i].MAP.Throughput, measured[i]),
			ModelZ7:    preds7[i].MAP.Throughput,
			ErrZ7:      stats.RelativeError(preds7[i].MAP.Throughput, measured[i]),
			PaperErr05: pp[0],
			PaperErr7:  pp[1],
		}
	}
	return rows, nil
}

// Figure12Result carries the full validation of the burstiness-aware
// model for one mix: the fitted I values plus per-population accuracy.
type Figure12Result struct {
	Mix     string
	IFront  float64
	IDB     float64
	PaperIF float64
	PaperID float64
	Rows    []AccuracyRow
}

// Figure12 reproduces the headline validation (Fig. 12): for each of the
// three mixes, fit MAP(2)s from Zestim = 7 s measurements, then compare
// the MAP queueing network and the MVA baseline against measured
// throughput across the EB sweep at Zqn = 0.5 s.
func Figure12(seed int64, scale Scale, populations []int) ([]Figure12Result, error) {
	if len(populations) == 0 {
		populations = []int{25, 50, 75, 100, 125, 150}
	}
	paperI := map[string][2]float64{
		"browsing": {40, 308},
		"shopping": {2, 286},
		"ordering": {3, 98},
	}
	suite := measurementSuite("figure12", scale, standardMixNames(), 0.5, populations, seed+3000)
	srep, err := runMeasurement(suite, 13)
	if err != nil {
		return nil, fmt.Errorf("experiments: figure 12: %w", err)
	}
	allMeasured := measuredThroughputs(srep)
	var out []Figure12Result
	for m, mix := range tpcw.StandardMixes() {
		chars, err := fitCharacterizations(mix, 7, 50, seed, scale)
		if err != nil {
			return nil, err
		}
		plan, err := twoTierPlan(chars, scale)
		if err != nil {
			return nil, fmt.Errorf("experiments: figure 12 plan for %s: %w", mix.Name, err)
		}
		measured := allMeasured[m*len(populations) : (m+1)*len(populations)]
		preds, err := solvePlan(plan, populations, core.SolverMAP, core.SolverMVA)
		if err != nil {
			return nil, err
		}
		res := Figure12Result{
			Mix:     mix.Name,
			IFront:  chars[0].IndexOfDispersion,
			IDB:     chars[1].IndexOfDispersion,
			PaperIF: paperI[mix.Name][0],
			PaperID: paperI[mix.Name][1],
		}
		for i, pr := range preds {
			res.Rows = append(res.Rows, AccuracyRow{
				Mix: mix.Name, EBs: pr.Population,
				Measured: measured[i],
				MVA:      pr.MVA.Throughput, MVAErr: stats.RelativeError(pr.MVA.Throughput, measured[i]),
				MAPModel: pr.MAP.Throughput, MAPErr: stats.RelativeError(pr.MAP.Throughput, measured[i]),
			})
		}
		out = append(out, res)
	}
	return out, nil
}
