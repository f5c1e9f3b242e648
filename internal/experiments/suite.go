package experiments

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/stats"
	"repro/internal/tpcw"
)

// Every testbed configuration in this package derives from a Scale in
// exactly one place: the measurement sweeps through a suite base
// workload (measurementSuite), the remaining single runs through the
// config/fitConfig helpers. All of them simulate the paper's two-tier
// front+DB testbed, tpcw.DefaultTiers(mix, 2).

// twoTierConfig is the paper's two-tier testbed run of mix at ebs
// emulated browsers; unset fields take the tpcw defaults.
func twoTierConfig(mix tpcw.Mix, ebs int, seed int64) (tpcw.ConfigN, error) {
	tiers, err := tpcw.DefaultTiers(mix, 2)
	if err != nil {
		return tpcw.ConfigN{}, err
	}
	return tpcw.ConfigN{Mix: mix, Tiers: tiers, EBs: ebs, Seed: seed}, nil
}

// config materializes the Scale as a two-tier testbed run configuration
// at the measurement duration.
func (s Scale) config(mix tpcw.Mix, ebs int, seed int64) (tpcw.ConfigN, error) {
	cfg, err := twoTierConfig(mix, ebs, seed)
	if err != nil {
		return cfg, err
	}
	cfg.Duration, cfg.Warmup, cfg.Cooldown = s.SimDuration, s.SimWarmup, s.SimCooldown
	return cfg, nil
}

// fitConfig is config at the Zestim fitting duration and think time —
// the Section 4.2 parameter-estimation runs.
func (s Scale) fitConfig(mix tpcw.Mix, zEstim float64, ebs int, seed int64) (tpcw.ConfigN, error) {
	cfg, err := s.config(mix, ebs, seed)
	if err != nil {
		return cfg, err
	}
	cfg.ThinkTime = zEstim
	cfg.Duration = s.FitDuration
	return cfg, nil
}

// workload materializes the Scale as a suite base workload: one
// single-run two-tier testbed cell at the measurement duration.
func (s Scale) workload(seed int64) *core.WorkloadSpec {
	return &core.WorkloadSpec{
		Tiers: 2, Replicas: 1, Seed: seed,
		Duration: s.SimDuration, Warmup: s.SimWarmup, Cooldown: s.SimCooldown,
	}
}

// standardMixNames lists the paper's three mixes in table order.
func standardMixNames() []string {
	mixes := tpcw.StandardMixes()
	names := make([]string, len(mixes))
	for i, m := range mixes {
		names[i] = m.Name
	}
	return names
}

// standardMix resolves a mix name against the paper's three mixes.
func standardMix(name string) (tpcw.Mix, error) {
	for _, m := range tpcw.StandardMixes() {
		if m.Name == name {
			return m, nil
		}
	}
	return tpcw.Mix{}, fmt.Errorf("experiments: unknown mix %q", name)
}

// measurementSuite declares a mixes × populations measurement sweep on
// the simulated testbed: one single-run cell per (mix, N), populations
// varying fastest — the order the paper's tables are printed in. The
// suite engine supplies the orchestration the figures used to hand-roll:
// deterministic expansion, a worker pool, and cell-ordered results.
func measurementSuite(name string, scale Scale, mixes []string, thinkTime float64, populations []int, seed int64) core.Suite {
	pops := make([][]int, len(populations))
	for i, n := range populations {
		pops[i] = []int{n}
	}
	return core.Suite{
		Name: name,
		Base: core.Scenario{
			ThinkTime: thinkTime,
			Workload:  scale.workload(seed),
			Solvers:   []core.SolverKind{core.SolverSim},
		},
		Grid: core.Grid{Mixes: mixes, Populations: pops},
	}
}

// measureRunner executes one measurement cell as a single two-tier
// testbed run, reproducing the pre-suite sweeps bit for bit:
// the run's seed is the cell's workload seed plus seedStep times its
// population — the per-population seed schedule the original loops
// used (1 for Figure 4, 13 for the accuracy sweeps).
func measureRunner(seedStep int64) core.CellRunner {
	return func(ctx context.Context, cell core.SuiteCell) (*core.Report, error) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		sc := cell.Scenario
		wl := sc.Workload
		mix, err := standardMix(wl.Mix)
		if err != nil {
			return nil, err
		}
		n := sc.Populations[0]
		cfg, err := twoTierConfig(mix, n, wl.Seed+int64(n)*seedStep)
		if err != nil {
			return nil, err
		}
		cfg.ThinkTime = sc.ThinkTime
		cfg.Duration, cfg.Warmup, cfg.Cooldown = wl.Duration, wl.Warmup, wl.Cooldown
		res, err := tpcw.RunN(cfg)
		if err != nil {
			return nil, fmt.Errorf("experiments: measuring %s at %d EBs: %w", mix.Name, n, err)
		}
		return &core.Report{
			Scenario: sc,
			Results: []core.PopulationReport{{
				Population: n,
				Sim: &core.SimPoint{
					Replicas:     1,
					Throughput:   stats.Interval{Mean: res.Throughput},
					MeanResponse: stats.Interval{Mean: res.MeanResponse},
					P95Response:  stats.Interval{Mean: res.P95Response},
					TierUtil: []stats.Interval{
						{Mean: res.AvgUtil[0]}, {Mean: res.AvgUtil[1]},
					},
					TierNames: res.TierNames,
				},
			}},
		}, nil
	}
}

// runMeasurement expands and executes a measurement suite, returning
// its rows in expansion order (mix-major, population-minor).
func runMeasurement(suite core.Suite, seedStep int64) (*core.SuiteReport, error) {
	return core.RunSuite(context.Background(), suite, measureRunner(seedStep))
}

// measuredThroughputs extracts per-cell simulated throughput in
// expansion order.
func measuredThroughputs(rep *core.SuiteReport) []float64 {
	out := make([]float64, len(rep.Rows))
	for i, row := range rep.Rows {
		out[i] = row.Report.Results[0].Sim.Throughput.Mean
	}
	return out
}
