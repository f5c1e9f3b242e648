package experiments

import (
	"fmt"

	"repro/internal/des"
	"repro/internal/inference"
	"repro/internal/mapqn"
	"repro/internal/markov"
	"repro/internal/monitor"
	"repro/internal/mva"
	"repro/internal/tpcw"
	"repro/internal/trace"
	"repro/internal/xrand"
)

// The ablations quantify the design choices DESIGN.md calls out: the
// idle-phase semantics of the MAP queueing network, the MAP(2) selection
// rule, the bias of the busy-period p95 estimator, and the burstiness
// level at which MVA starts failing.

// twoTierNetwork is the paper's front+DB MAP network (Fig. 9) at
// Z = 0.5 s with n customers.
func twoTierNetwork(front, db *markov.MAP, n int) mapqn.NetworkModel {
	return mapqn.NetworkModel{
		Stations: []mapqn.Station{
			{Name: "front", MAP: front},
			{Name: "db", MAP: db},
		},
		ThinkTime: 0.5,
		Customers: n,
	}
}

// IdleSemanticsRow compares frozen-phase against free-running-phase
// station semantics at one population.
type IdleSemanticsRow struct {
	EBs           int
	FrozenX       float64
	FreeRunningX  float64
	RelDifference float64
}

// AblationIdleSemantics solves the same fitted model under both idle-
// station semantics. Differences concentrate at low populations, where
// stations actually idle.
func AblationIdleSemantics(scale Scale) ([]IdleSemanticsRow, error) {
	front, err := markov.FitThreePoint(0.0068, 40, 0.021, fitOpts())
	if err != nil {
		return nil, err
	}
	db, err := markov.FitThreePoint(0.0046, 280, 0.019, fitOpts())
	if err != nil {
		return nil, err
	}
	var rows []IdleSemanticsRow
	for _, n := range []int{5, 25, 75, 150} {
		m := twoTierNetwork(front.MAP, db.MAP, n)
		frozen, err := mapqn.SolveNetwork(m, solverOpts(scale))
		if err != nil {
			return nil, fmt.Errorf("experiments: frozen semantics at %d: %w", n, err)
		}
		m.PhasesRunWhileIdle = true
		free, err := mapqn.SolveNetwork(m, solverOpts(scale))
		if err != nil {
			return nil, fmt.Errorf("experiments: free-running semantics at %d: %w", n, err)
		}
		rel := (free.Throughput - frozen.Throughput) / frozen.Throughput
		if rel < 0 {
			rel = -rel
		}
		rows = append(rows, IdleSemanticsRow{
			EBs: n, FrozenX: frozen.Throughput, FreeRunningX: free.Throughput,
			RelDifference: rel,
		})
	}
	return rows, nil
}

// SelectionPolicyRow compares the default closest-p95 selection against
// the conservative max-lag-1 tie-break (paper footnote 8).
type SelectionPolicyRow struct {
	EBs          int
	ClosestP95X  float64
	MaxLag1X     float64
	Conservative bool // true when max-lag1 predicts no more throughput
}

// AblationSelectionPolicy fits the same measurements under both selection
// rules and compares predictions.
func AblationSelectionPolicy(scale Scale) ([]SelectionPolicyRow, error) {
	mean, i, p95 := 0.0046, 280.0, 0.019
	def, err := markov.FitThreePoint(mean, i, p95, markov.FitOptions{})
	if err != nil {
		return nil, err
	}
	agg, err := markov.FitThreePoint(mean, i, p95, markov.FitOptions{Policy: markov.SelectMaxLag1})
	if err != nil {
		return nil, err
	}
	front := markov.Poisson(1 / 0.0068)
	var rows []SelectionPolicyRow
	for _, n := range []int{25, 75, 150} {
		a, err := mapqn.SolveNetwork(twoTierNetwork(front, def.MAP, n), solverOpts(scale))
		if err != nil {
			return nil, err
		}
		b, err := mapqn.SolveNetwork(twoTierNetwork(front, agg.MAP, n), solverOpts(scale))
		if err != nil {
			return nil, err
		}
		rows = append(rows, SelectionPolicyRow{
			EBs: n, ClosestP95X: a.Throughput, MaxLag1X: b.Throughput,
			Conservative: b.Throughput <= a.Throughput*1.001,
		})
	}
	return rows, nil
}

// P95BiasRow records the busy-period p95 estimator against the true
// stationary p95 of a known process at one burstiness level.
type P95BiasRow struct {
	TrueI        float64
	TrueP95      float64
	EstimatedP95 float64
	RelBias      float64
}

// AblationP95Bias quantifies the paper's claim (Section 4.1) that the
// p95(B_k)/median(n_k) estimator is accurate for high I and biased but
// harmless at low I. The harness mirrors the paper's measurement setting:
// a lightly loaded server (the Zestim fitting runs of Section 4.2) is
// monitored at a coarse window, so busy times B_k genuinely vary.
func AblationP95Bias(seed int64) ([]P95BiasRow, error) {
	var rows []P95BiasRow
	for _, gamma := range []float64{0, 0.5, 0.9, 0.99} {
		h, err := markov.BalancedH2(0.01, 4)
		if err != nil {
			return nil, err
		}
		m, err := markov.CorrelatedH2(h, gamma)
		if err != nil {
			return nil, err
		}
		trueI, err := m.IndexOfDispersion()
		if err != nil {
			return nil, err
		}
		trueP95, err := m.Percentile(95)
		if err != nil {
			return nil, err
		}
		samples, err := monitoredQueue(m, 0.2, 5, 40000, seed)
		if err != nil {
			return nil, err
		}
		est, err := samples.Percentile95ServiceTime()
		if err != nil {
			return nil, err
		}
		bias := (est - trueP95) / trueP95
		if bias < 0 {
			bias = -bias
		}
		rows = append(rows, P95BiasRow{
			TrueI: trueI, TrueP95: trueP95, EstimatedP95: est, RelBias: bias,
		})
	}
	return rows, nil
}

// monitoredQueue runs an M/MAP/1 queue at the given utilization and
// returns coarse monitoring samples — the ablation stand-in for a
// production measurement run.
func monitoredQueue(m *markov.MAP, rho, period, horizon float64, seed int64) (trace.UtilizationSamples, error) {
	src := xrand.New(seed)
	arrivalRate := rho / m.Mean()
	// Pre-sample enough correlated service times to cover the horizon.
	n := int(arrivalRate*horizon) + 1000
	services := m.Sample(n, src.Split())
	sim := des.NewSim()
	st := des.NewFCFSStation(sim, "q", func(*des.Job) {})
	mon := monitor.Watch(sim, st, period)
	next := 0
	var arrive func()
	arrive = func() {
		if next >= len(services) {
			return
		}
		st.Arrive(&des.Job{ID: int64(next), Demand: services[next]})
		next++
		sim.Schedule(src.ExpRate(arrivalRate), arrive)
	}
	sim.Schedule(src.ExpRate(arrivalRate), arrive)
	sim.RunUntil(horizon)
	return mon.Samples(0, 0)
}

// BurstinessSweepRow records model accuracy at one contention intensity.
type BurstinessSweepRow struct {
	TriggerProbability float64
	MeasuredX          float64
	MVAX               float64
	MVAErr             float64
	IDB                float64
}

// AblationBurstinessSweep scales the database contention intensity of the
// browsing mix from zero upward and measures where MVA starts failing —
// the design-space view behind the paper's Fig. 10 finding.
func AblationBurstinessSweep(seed int64, scale Scale) ([]BurstinessSweepRow, error) {
	var rows []BurstinessSweepRow
	for _, p := range []float64{0, 0.001, 0.0035, 0.008} {
		mix := tpcw.BrowsingMix()
		mix.DBContention.TriggerProbability = p
		if p == 0 {
			mix.DBContention = tpcw.ContentionParams{}
			mix.FrontContention = tpcw.ContentionParams{}
		}
		// Demands measured at moderate load...
		fitCfg, err := scale.config(mix, 50, seed)
		if err != nil {
			return nil, err
		}
		fitCfg.ThinkTime = 0.5
		fitRun, err := tpcw.RunN(fitCfg)
		if err != nil {
			return nil, err
		}
		chars, err := inference.CharacterizeAll(fitRun.TierSamples, inference.Options{})
		if err != nil {
			return nil, err
		}
		// ...validated at saturation.
		valCfg, err := scale.config(mix, 120, seed+7)
		if err != nil {
			return nil, err
		}
		valCfg.ThinkTime = 0.5
		valRun, err := tpcw.RunN(valCfg)
		if err != nil {
			return nil, err
		}
		pred, err := mva.Solve(mva.ModelN(meanDemands(chars), []string{"front", "db"}, 0.5), 120)
		if err != nil {
			return nil, err
		}
		rows = append(rows, BurstinessSweepRow{
			TriggerProbability: p,
			MeasuredX:          valRun.Throughput,
			MVAX:               pred.Throughput,
			MVAErr:             relError(pred.Throughput, valRun.Throughput),
			IDB:                chars[1].IndexOfDispersion,
		})
	}
	return rows, nil
}

// GranularityRecoveryRow records how well the Fig. 2 estimator recovers a
// known I at one monitoring granularity (jobs per window).
type GranularityRecoveryRow struct {
	JobsPerWindow float64
	TrueI         float64
	EstimatedI    float64
	RelError      float64
}

// AblationGranularityRecovery isolates the measurement-granularity effect
// of Fig. 11 in a controlled setting. The same MAP service process drives
// servers at decreasing load — exactly what raising Zestim does on the
// testbed — so each 5-second monitoring window holds fewer completions.
// Finer effective granularity should recover the analytic I better.
func AblationGranularityRecovery(seed int64) ([]GranularityRecoveryRow, error) {
	h, err := markov.BalancedH2(0.01, 4)
	if err != nil {
		return nil, err
	}
	m, err := markov.CorrelatedH2(h, 0.97)
	if err != nil {
		return nil, err
	}
	trueI, err := m.IndexOfDispersion()
	if err != nil {
		return nil, err
	}
	var rows []GranularityRecoveryRow
	for _, rho := range []float64{0.8, 0.4, 0.1} {
		samples, err := monitoredQueue(m, rho, 5, 60000, seed)
		if err != nil {
			return nil, err
		}
		res, err := samples.EstimateIndexOfDispersion(trace.DispersionOptions{})
		if err != nil {
			return nil, err
		}
		rows = append(rows, GranularityRecoveryRow{
			JobsPerWindow: rho / 0.01 * 5, // arrivals per window
			TrueI:         trueI,
			EstimatedI:    res.I,
			RelError:      relError(res.I, trueI),
		})
	}
	return rows, nil
}
