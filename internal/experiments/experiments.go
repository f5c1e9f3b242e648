// Package experiments regenerates every table and figure of the paper's
// evaluation. Each function returns structured rows that the paperrepro
// command renders as tables and the root-level benchmarks report, so a
// single implementation backs both entry points.
//
// Scale: the Quick profile shortens simulated runs for CI-style checks;
// the Full profile approaches the paper's three-hour experiments.
package experiments

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/ctmc"
	"repro/internal/markov"
	"repro/internal/queues"
	"repro/internal/tpcw"
	"repro/internal/trace"
	"repro/internal/xrand"
)

// Scale selects experiment durations.
type Scale struct {
	// TraceLen is the number of samples for the Fig. 1 traces (paper:
	// 20,000).
	TraceLen int
	// SimDuration is the simulated seconds per testbed run.
	SimDuration float64
	// SimWarmup and SimCooldown trim the analysis window.
	SimWarmup, SimCooldown float64
	// FitDuration is the simulated seconds for Zestim fitting runs.
	FitDuration float64
	// SolverTol is the CTMC solver tolerance for model evaluations.
	SolverTol float64
}

// Quick returns a scale suitable for tests and fast reproduction passes
// (minutes for the full set).
func Quick() Scale {
	return Scale{
		TraceLen:    20000,
		SimDuration: 900,
		SimWarmup:   60,
		SimCooldown: 30,
		FitDuration: 1500,
		SolverTol:   1e-8,
	}
}

// Full returns a scale close to the paper's setup (3 h runs).
func Full() Scale {
	return Scale{
		TraceLen:    20000,
		SimDuration: 10800,
		SimWarmup:   300,
		SimCooldown: 300,
		FitDuration: 10800,
		SolverTol:   1e-9,
	}
}

// Figure1Row describes one burstiness profile of Fig. 1.
type Figure1Row struct {
	Profile string
	Mean    float64
	SCV     float64
	I       float64
	PaperI  float64
}

// Figure1 regenerates the four traces of Fig. 1 (identical H2 marginal,
// increasing burstiness) and measures their index of dispersion.
func Figure1(seed int64, scale Scale) ([]Figure1Row, error) {
	paperI := map[trace.Profile]float64{
		trace.ProfileRandom:       3.0,
		trace.ProfileMildBursts:   22.3,
		trace.ProfileStrongBursts: 92.6,
		trace.ProfileSingleBurst:  488.7,
	}
	profiles := []trace.Profile{
		trace.ProfileRandom, trace.ProfileMildBursts,
		trace.ProfileStrongBursts, trace.ProfileSingleBurst,
	}
	rows := make([]Figure1Row, 0, len(profiles))
	for _, p := range profiles {
		tr, err := trace.GenerateH2Trace(scale.TraceLen, 1.0, 3.0, p, xrand.New(seed))
		if err != nil {
			return nil, fmt.Errorf("experiments: figure 1 %v: %w", p, err)
		}
		i, err := tr.IndexOfDispersion(trace.DispersionOptions{})
		if err != nil {
			return nil, fmt.Errorf("experiments: figure 1 %v: %w", p, err)
		}
		rows = append(rows, Figure1Row{
			Profile: p.String(),
			Mean:    tr.Mean(),
			SCV:     tr.SCV(),
			I:       i,
			PaperI:  paperI[p],
		})
	}
	return rows, nil
}

// Table1Row is one row of Table 1: M/Trace/1 response times at two
// utilization levels for one burstiness profile.
type Table1Row struct {
	Profile                   string
	I                         float64
	Mean50                    float64 // mean response at rho = 0.5
	P95At50                   float64
	Mean80                    float64 // mean response at rho = 0.8
	P95At80                   float64
	PaperMean50, PaperP95At50 float64
	PaperMean80, PaperP95At80 float64
}

// Table1 regenerates Table 1: the same four traces fed through an
// M/Trace/1 queue at rho = 0.5 (lambda = 1/2) and rho = 0.8
// (lambda = 1/1.25).
func Table1(seed int64, scale Scale) ([]Table1Row, error) {
	paper := map[trace.Profile][4]float64{
		trace.ProfileRandom:       {3.02, 14.42, 8.70, 33.26},
		trace.ProfileMildBursts:   {11.00, 83.35, 43.35, 211.76},
		trace.ProfileStrongBursts: {26.69, 252.18, 72.31, 485.42},
		trace.ProfileSingleBurst:  {120.49, 1132.40, 150.32, 1346.53},
	}
	profiles := []trace.Profile{
		trace.ProfileRandom, trace.ProfileMildBursts,
		trace.ProfileStrongBursts, trace.ProfileSingleBurst,
	}
	rows := make([]Table1Row, 0, len(profiles))
	for _, p := range profiles {
		tr, err := trace.GenerateH2Trace(scale.TraceLen, 1.0, 3.0, p, xrand.New(seed))
		if err != nil {
			return nil, err
		}
		i, err := tr.IndexOfDispersion(trace.DispersionOptions{})
		if err != nil {
			return nil, err
		}
		at50, err := queues.MTrace1(tr, 0.5, xrand.New(seed+1))
		if err != nil {
			return nil, err
		}
		at80, err := queues.MTrace1(tr, 0.8, xrand.New(seed+2))
		if err != nil {
			return nil, err
		}
		pp := paper[p]
		rows = append(rows, Table1Row{
			Profile: p.String(), I: i,
			Mean50: at50.MeanResponse, P95At50: at50.P95Response,
			Mean80: at80.MeanResponse, P95At80: at80.P95Response,
			PaperMean50: pp[0], PaperP95At50: pp[1],
			PaperMean80: pp[2], PaperP95At80: pp[3],
		})
	}
	return rows, nil
}

// Figure4Row is one point of the throughput/utilization sweep of Fig. 4.
type Figure4Row struct {
	Mix       string
	EBs       int
	TPUT      float64
	UtilFront float64
	UtilDB    float64
}

// Figure4 sweeps the three mixes over the EB range of Fig. 4 and reports
// throughput and mean utilizations (Z = 0.5 s). The mixes × populations
// cross runs as one suite-engine grid.
func Figure4(seed int64, scale Scale, populations []int) ([]Figure4Row, error) {
	if len(populations) == 0 {
		populations = []int{25, 50, 75, 100, 125, 150}
	}
	suite := measurementSuite("figure4", scale, standardMixNames(), 0.5, populations, seed)
	srep, err := runMeasurement(suite, 1)
	if err != nil {
		return nil, fmt.Errorf("experiments: figure 4: %w", err)
	}
	rows := make([]Figure4Row, 0, len(srep.Rows))
	for _, row := range srep.Rows {
		r := row.Report.Results[0]
		rows = append(rows, Figure4Row{
			Mix: row.Report.Scenario.Workload.Mix, EBs: r.Population,
			TPUT:      r.Sim.Throughput.Mean,
			UtilFront: r.Sim.TierUtil[0].Mean,
			UtilDB:    r.Sim.TierUtil[1].Mean,
		})
	}
	return rows, nil
}

// TimelineStats summarizes a per-second utilization or queue series the
// way the paper's timeline figures are read: quiet level, spike level,
// and how often the DB overtakes the front.
type TimelineStats struct {
	Mix                 string
	MeanFront, MeanDB   float64
	P10DB, P90DB, MaxDB float64
	SwitchFraction      float64 // seconds with U_db > U_front + 0.2
	MeanQueueDB         float64
	MaxQueueDB          float64
	QueueP10, QueueP90  float64
}

// trackedRun runs mix at 100 EBs on the two-tier testbed with 1-second
// series tracking — the timeline runs behind Figs. 5-8.
func trackedRun(mix tpcw.Mix, seed int64, scale Scale) (*tpcw.ResultN, error) {
	cfg, err := scale.config(mix, 100, seed)
	if err != nil {
		return nil, err
	}
	cfg.TrackSeries = true
	return tpcw.RunN(cfg)
}

// Figure5And6 runs the three mixes at 100 EBs with 1-second tracking and
// summarizes the utilization timelines (Fig. 5) and DB queue-length
// behaviour (Fig. 6).
func Figure5And6(seed int64, scale Scale) ([]TimelineStats, error) {
	out := make([]TimelineStats, 0, 3)
	for _, mix := range tpcw.StandardMixes() {
		res, err := trackedRun(mix, seed, scale)
		if err != nil {
			return nil, fmt.Errorf("experiments: figure 5/6 %s: %w", mix.Name, err)
		}
		front, db, dbQueue := res.TierUtil1s[0], res.TierUtil1s[1], res.TierQueueLen1s[1]
		st := TimelineStats{Mix: mix.Name}
		n := len(front)
		switches := 0
		for i := 0; i < n; i++ {
			st.MeanFront += front[i]
			st.MeanDB += db[i]
			if db[i] > front[i]+0.2 {
				switches++
			}
		}
		st.MeanFront /= float64(n)
		st.MeanDB /= float64(n)
		st.SwitchFraction = float64(switches) / float64(n)
		st.P10DB = percentileOf(db, 10)
		st.P90DB = percentileOf(db, 90)
		st.MaxDB = maxOf(db)
		st.MeanQueueDB = meanOf(dbQueue)
		st.MaxQueueDB = maxOf(dbQueue)
		st.QueueP10 = percentileOf(dbQueue, 10)
		st.QueueP90 = percentileOf(dbQueue, 90)
		out = append(out, st)
	}
	return out, nil
}

// TypeBreakdownRow summarizes per-transaction in-system counts (Figs. 7-8).
type TypeBreakdownRow struct {
	Mix             string
	Type            string
	Share           float64 // completion share of this type
	MeanInSystem    float64
	MaxInSystem     float64
	CorrWithDBQueue float64
}

// Figure7And8 reports the Best Seller and Home in-system dynamics that
// the paper uses to identify the cause of the DB queue spikes.
func Figure7And8(seed int64, scale Scale) ([]TypeBreakdownRow, error) {
	var rows []TypeBreakdownRow
	for _, mix := range tpcw.StandardMixes() {
		res, err := trackedRun(mix, seed, scale)
		if err != nil {
			return nil, fmt.Errorf("experiments: figure 7/8 %s: %w", mix.Name, err)
		}
		for _, tt := range []tpcw.Transaction{tpcw.BestSellers, tpcw.Home} {
			series := res.InSystem1s[tt]
			rows = append(rows, TypeBreakdownRow{
				Mix:             mix.Name,
				Type:            tt.String(),
				Share:           float64(res.CompletedByType[tt]) / float64(res.Completed),
				MeanInSystem:    meanOf(series),
				MaxInSystem:     maxOf(series),
				CorrWithDBQueue: correlation(series, res.TierQueueLen1s[1]),
			})
		}
	}
	return rows, nil
}

// solverOpts returns CTMC options at the scale's tolerance.
func solverOpts(scale Scale) ctmc.Options {
	return ctmc.Options{Tol: scale.SolverTol}
}

// fitOpts returns the standard fitting options.
func fitOpts() markov.FitOptions { return markov.FitOptions{} }

func meanOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

func percentileOf(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	idx := int(p / 100 * float64(len(sorted)-1))
	return sorted[idx]
}

func correlation(a, b []float64) float64 {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	if n == 0 {
		return 0
	}
	ma, mb := 0.0, 0.0
	for i := 0; i < n; i++ {
		ma += a[i]
		mb += b[i]
	}
	ma /= float64(n)
	mb /= float64(n)
	va, vb, cov := 0.0, 0.0, 0.0
	for i := 0; i < n; i++ {
		da, db := a[i]-ma, b[i]-mb
		va += da * da
		vb += db * db
		cov += da * db
	}
	if va == 0 || vb == 0 {
		return 0
	}
	return cov / math.Sqrt(va*vb)
}
