package burst

// The benchmarks below regenerate every table and figure of the paper's
// evaluation, printing the same rows the paper reports. Each benchmark
// runs its experiment once per iteration (they take seconds to minutes,
// so go test's default benchtime keeps b.N = 1) and reports headline
// numbers as custom metrics. Run all of them with:
//
//	go test -bench=. -benchmem
//
// Absolute values differ from the paper's testbed (our substrate is a
// simulator, not their hardware); the shapes — who wins, by what factor,
// where saturation falls — are the reproduction targets. EXPERIMENTS.md
// records paper-vs-measured for each artifact.

import (
	"context"
	"testing"

	"repro/internal/experiments"
)

// BenchmarkSolveThreeTier tracks the cost of the exact N-tier CTMC
// solution as the chain deepens: the same bursty workload solved as a
// two-station (front+DB) and a three-station (front+app+DB) network at
// identical population. The reported "states" metric exposes the
// state-space growth with K that motivates the product-form bounds.
func BenchmarkSolveThreeTier(b *testing.B) {
	front, err := FitMAP2(0.004, 40, 0.02, FitOptions{})
	if err != nil {
		b.Fatal(err)
	}
	app, err := FitMAP2(0.006, 120, 0.04, FitOptions{})
	if err != nil {
		b.Fatal(err)
	}
	db, err := FitMAP2(0.003, 25, 0.01, FitOptions{})
	if err != nil {
		b.Fatal(err)
	}
	lb, err := FitMAP2(0.002, 4, 0.008, FitOptions{})
	if err != nil {
		b.Fatal(err)
	}
	cases := []struct {
		name     string
		ebs      int
		stations []Station
	}{
		{"K=2", 30, []Station{
			{Name: "front", MAP: front.MAP},
			{Name: "db", MAP: db.MAP},
		}},
		{"K=3", 30, []Station{
			{Name: "front", MAP: front.MAP},
			{Name: "app", MAP: app.MAP},
			{Name: "db", MAP: db.MAP},
		}},
		// The K=4 chain runs at a smaller population so the bench stays
		// minutes-scale; its state space still dwarfs the K=3 one.
		{"K=4", 15, []Station{
			{Name: "lb", MAP: lb.MAP},
			{Name: "front", MAP: front.MAP},
			{Name: "app", MAP: app.MAP},
			{Name: "db", MAP: db.MAP},
		}},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			var met MAPNetworkMetricsN
			for i := 0; i < b.N; i++ {
				m, err := SolveNetwork(context.Background(), MAPNetworkModelN{
					Stations:  c.stations,
					ThinkTime: 0.5,
					Customers: c.ebs,
				}, SolverOptions{Tol: 1e-8})
				if err != nil {
					b.Fatal(err)
				}
				met = m
			}
			b.ReportMetric(float64(met.States), "states")
			b.ReportMetric(met.Throughput, "X")
		})
	}
}

// BenchmarkSolveDecomp tracks the near-decomposable approximate solver
// on chains the exact CTMC cannot touch: K=4 and K=6 bursty networks at
// N=200, where the exact product state space would run to billions of
// states. Each per-station chain is O(N*phases) states, so the decomp
// tier turns the exponential K-dependence into a linear one; the
// reported metrics expose the aggregate throughput, the summed chain
// states, and the outer fixed-point iteration count.
func BenchmarkSolveDecomp(b *testing.B) {
	front, err := FitMAP2(0.004, 40, 0.02, FitOptions{})
	if err != nil {
		b.Fatal(err)
	}
	app, err := FitMAP2(0.006, 120, 0.04, FitOptions{})
	if err != nil {
		b.Fatal(err)
	}
	db, err := FitMAP2(0.003, 25, 0.01, FitOptions{})
	if err != nil {
		b.Fatal(err)
	}
	lb, err := FitMAP2(0.002, 4, 0.008, FitOptions{})
	if err != nil {
		b.Fatal(err)
	}
	cache, err := FitMAP2(0.0025, 10, 0.009, FitOptions{})
	if err != nil {
		b.Fatal(err)
	}
	search, err := FitMAP2(0.005, 60, 0.03, FitOptions{})
	if err != nil {
		b.Fatal(err)
	}
	four := []Station{
		{Name: "lb", MAP: lb.MAP},
		{Name: "front", MAP: front.MAP},
		{Name: "app", MAP: app.MAP},
		{Name: "db", MAP: db.MAP},
	}
	six := []Station{
		{Name: "lb", MAP: lb.MAP},
		{Name: "front", MAP: front.MAP},
		{Name: "cache", MAP: cache.MAP},
		{Name: "app", MAP: app.MAP},
		{Name: "search", MAP: search.MAP},
		{Name: "db", MAP: db.MAP},
	}
	for _, c := range []struct {
		name     string
		stations []Station
	}{
		{"K=4/N=200", four},
		{"K=6/N=200", six},
	} {
		b.Run(c.name, func(b *testing.B) {
			var met MAPNetworkMetricsN
			for i := 0; i < b.N; i++ {
				m, err := SolveNetworkDecomp(context.Background(), MAPNetworkModelN{
					Stations:  c.stations,
					ThinkTime: 0.5,
					Customers: 200,
				}, DecompOptions{})
				if err != nil {
					b.Fatal(err)
				}
				met = m
			}
			b.ReportMetric(met.Throughput, "X")
			b.ReportMetric(float64(met.States), "states")
			b.ReportMetric(float64(met.SolverIterations), "iterations")
		})
	}
}

// BenchmarkSolverSweep tracks the cost of a population sweep of the
// K=3 CTMC — the shape of every what-if curve in the paper (Figs. 4,
// 10-12): warm runs the production warm-started path, cold re-solves
// every population from scratch. The warm/cold ratio is the sweep
// speedup that capacity-planning callers get for free.
func BenchmarkSolverSweep(b *testing.B) {
	front, err := FitMAP2(0.004, 40, 0.02, FitOptions{})
	if err != nil {
		b.Fatal(err)
	}
	app, err := FitMAP2(0.006, 120, 0.04, FitOptions{})
	if err != nil {
		b.Fatal(err)
	}
	db, err := FitMAP2(0.003, 25, 0.01, FitOptions{})
	if err != nil {
		b.Fatal(err)
	}
	stations := []Station{
		{Name: "front", MAP: front.MAP},
		{Name: "app", MAP: app.MAP},
		{Name: "db", MAP: db.MAP},
	}
	populations := []int{5, 10, 15, 20, 25, 30}
	opts := SolverOptions{Tol: 1e-8}
	b.Run("warm", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			mets, err := SolveNetworkSweep(context.Background(), stations, 0.5, populations, opts, nil)
			if err != nil {
				b.Fatal(err)
			}
			if i == 0 {
				b.ReportMetric(mets[len(mets)-1].Throughput, "X@30")
				b.ReportMetric(float64(mets[len(mets)-1].States), "states@30")
			}
		}
	})
	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			var last MAPNetworkMetricsN
			for _, n := range populations {
				met, err := SolveNetwork(context.Background(), MAPNetworkModelN{
					Stations:  stations,
					ThinkTime: 0.5,
					Customers: n,
				}, opts)
				if err != nil {
					b.Fatal(err)
				}
				last = met
			}
			if i == 0 {
				b.ReportMetric(last.Throughput, "X@30")
			}
		}
	})
}

// BenchmarkRunSuite tracks batch throughput of the suite engine on the
// committed examples/suite grid: 16 content-addressed cells (database
// I ∈ {1, 4, 40, 400} × four populations) executed over the worker
// pool with stage memoization. The reported metrics expose the memo
// economics (distinct fits vs total (cell, tier) pairs) alongside the
// wall-clock ns/op that BENCH_solver.json archives.
func BenchmarkRunSuite(b *testing.B) {
	suite, err := LoadSuite("examples/suite/suite.json")
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		rep, err := RunSuite(context.Background(), suite)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(rep.Cells), "cells")
			b.ReportMetric(float64(rep.Memo.FitMisses), "fits")
			b.ReportMetric(float64(rep.Memo.FitMisses+rep.Memo.FitHits), "fit-lookups")
			last := rep.Rows[len(rep.Rows)-1].Report.Results[0]
			b.ReportMetric(last.MAP.Throughput, "X(I=400,N=150)")
		}
	}
}

// BenchmarkMulticlassMVA tracks the cost of the multiclass MVA solvers
// that back per-class what-if predictions: exact walks the full
// population lattice (its cost is the lattice size, here (N/2+1)^2 per
// solve at the paper's two-tier shape plus a three-class variant), approx
// runs the Schweitzer/Bard fixed point at a population far beyond any
// tractable lattice. The reported X is the aggregate throughput, a
// correctness canary alongside the timing.
func BenchmarkMulticlassMVA(b *testing.B) {
	two := MultiNetwork{
		Demands:    [][]float64{{0.004, 0.005}, {0.009, 0.03}},
		ThinkTimes: []float64{0.5, 0.5},
	}
	three := MultiNetwork{
		Demands:    [][]float64{{0.004, 0.005}, {0.009, 0.03}, {0.002, 0.012}},
		ThinkTimes: []float64{0.5, 0.5, 0.5},
	}
	b.Run("exact/C=2/N=100", func(b *testing.B) {
		var x float64
		for i := 0; i < b.N; i++ {
			res, err := SolveMulticlass(two, []int{50, 50})
			if err != nil {
				b.Fatal(err)
			}
			x = res.Throughput[0] + res.Throughput[1]
		}
		b.ReportMetric(x, "X")
	})
	b.Run("exact/C=3/N=90", func(b *testing.B) {
		var x float64
		for i := 0; i < b.N; i++ {
			res, err := SolveMulticlass(three, []int{30, 30, 30})
			if err != nil {
				b.Fatal(err)
			}
			x = res.Throughput[0] + res.Throughput[1] + res.Throughput[2]
		}
		b.ReportMetric(x, "X")
	})
	b.Run("approx/C=3/N=3000", func(b *testing.B) {
		var x float64
		for i := 0; i < b.N; i++ {
			res, err := SolveMulticlassApprox(three, []int{1000, 1000, 1000}, 1e-10)
			if err != nil {
				b.Fatal(err)
			}
			x = res.Throughput[0] + res.Throughput[1] + res.Throughput[2]
		}
		b.ReportMetric(x, "X")
	})
}

// BenchmarkSimulateTPCW tracks the TPC-W discrete-event simulator on its
// own: one browsing-mix front+DB testbed, 100 EBs over 600 simulated
// seconds, the kind of run each cross-validation replica makes. Its
// allocs/op is the per-run setup, monitoring and result collection
// only: the event calendar, the stations and the emulated browsers
// allocate nothing per event or per transaction, and the gate holds
// that.
func BenchmarkSimulateTPCW(b *testing.B) {
	tiers, err := DefaultTPCWTiers(BrowsingMix(), 2)
	if err != nil {
		b.Fatal(err)
	}
	cfg := TPCWConfigN{
		Mix: BrowsingMix(), Tiers: tiers,
		EBs: 100, Seed: 9, Duration: 600, Warmup: 60, Cooldown: 30,
	}
	for i := 0; i < b.N; i++ {
		res, err := Simulate(context.Background(), cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(res.Throughput, "X")
			b.ReportMetric(float64(res.Completed), "completions")
		}
	}
}

// benchScale is the measurement scale used by the benchmark harness:
// long enough for stable estimates, short enough that the full suite
// completes in minutes.
func benchScale() experiments.Scale {
	s := experiments.Quick()
	s.SimDuration = 1200
	s.FitDuration = 2400
	return s
}

// BenchmarkFigure1BurstinessProfiles regenerates Fig. 1: four traces with
// identical hyperexponential marginal (mean 1, SCV 3) and increasing
// burstiness; the index of dispersion discriminates them.
func BenchmarkFigure1BurstinessProfiles(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Figure1(11, benchScale())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("%-22s %8s %6s %10s %10s", "profile", "mean", "SCV", "I", "paper I")
			for _, r := range rows {
				b.Logf("%-22s %8.3f %6.2f %10.1f %10.1f", r.Profile, r.Mean, r.SCV, r.I, r.PaperI)
			}
			b.ReportMetric(rows[3].I, "I(single-burst)")
			b.ReportMetric(rows[0].I, "I(random)")
		}
	}
}

// BenchmarkTable1MTrace1 regenerates Table 1: M/Trace/1 mean and 95th
// percentile response times at rho = 0.5 and 0.8 for the four profiles.
func BenchmarkTable1MTrace1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table1(11, benchScale())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("%-22s %7s | %9s %9s | %9s %9s", "workload", "I", "mean(.5)", "p95(.5)", "mean(.8)", "p95(.8)")
			for _, r := range rows {
				b.Logf("%-22s %7.1f | %9.2f %9.2f | %9.2f %9.2f",
					r.Profile, r.I, r.Mean50, r.P95At50, r.Mean80, r.P95At80)
				b.Logf("%-22s %7s | %9.2f %9.2f | %9.2f %9.2f",
					"  (paper)", "", r.PaperMean50, r.PaperP95At50, r.PaperMean80, r.PaperP95At80)
			}
			b.ReportMetric(rows[3].Mean50/rows[0].Mean50, "burst-penalty-x")
		}
	}
}

// BenchmarkFigure4ThroughputUtilization regenerates Fig. 4: system
// throughput and per-tier utilizations versus EBs for the three mixes.
func BenchmarkFigure4ThroughputUtilization(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Figure4(21, benchScale(), nil)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("%-9s %5s %8s %8s %8s", "mix", "EBs", "TPUT", "U_front", "U_db")
			var peak float64
			for _, r := range rows {
				b.Logf("%-9s %5d %8.1f %8.2f %8.2f", r.Mix, r.EBs, r.TPUT, r.UtilFront, r.UtilDB)
				if r.TPUT > peak {
					peak = r.TPUT
				}
			}
			b.ReportMetric(peak, "peak-TPUT")
		}
	}
}

// BenchmarkFigure5UtilizationTimeline regenerates Fig. 5: 1-second
// utilization timelines at 100 EBs; the bottleneck switch shows up as
// periods where DB utilization exceeds the front's.
func BenchmarkFigure5UtilizationTimeline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		stats, err := experiments.Figure5And6(31, benchScale())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("%-9s %8s %8s %8s %8s %8s", "mix", "U_front", "U_db", "P90(Udb)", "max(Udb)", "switch")
			for _, s := range stats {
				b.Logf("%-9s %8.2f %8.2f %8.2f %8.2f %8.3f",
					s.Mix, s.MeanFront, s.MeanDB, s.P90DB, s.MaxDB, s.SwitchFraction)
				if s.Mix == "browsing" {
					b.ReportMetric(s.SwitchFraction, "browsing-switch-frac")
				}
			}
		}
	}
}

// BenchmarkFigure6DBQueueBurstiness regenerates Fig. 6: DB queue-length
// dynamics at 100 EBs — bursty spikes toward the full population under
// the browsing mix only.
func BenchmarkFigure6DBQueueBurstiness(b *testing.B) {
	for i := 0; i < b.N; i++ {
		stats, err := experiments.Figure5And6(31, benchScale())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("%-9s %10s %10s %10s %10s", "mix", "Qdb mean", "Qdb P10", "Qdb P90", "Qdb max")
			for _, s := range stats {
				b.Logf("%-9s %10.1f %10.1f %10.1f %10.0f",
					s.Mix, s.MeanQueueDB, s.QueueP10, s.QueueP90, s.MaxQueueDB)
				if s.Mix == "browsing" {
					b.ReportMetric(s.MaxQueueDB, "browsing-max-Qdb")
				}
			}
		}
	}
}

// BenchmarkFigure7And8TransactionBreakdown regenerates Figs. 7-8: the
// Best Seller and Home in-system counts that identify the transactions
// responsible for the DB queue spikes.
func BenchmarkFigure7And8TransactionBreakdown(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Figure7And8(41, benchScale())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("%-9s %-12s %7s %10s %10s %8s", "mix", "type", "share", "mean-in", "max-in", "corrQ")
			for _, r := range rows {
				b.Logf("%-9s %-12s %7.3f %10.1f %10.0f %8.2f",
					r.Mix, r.Type, r.Share, r.MeanInSystem, r.MaxInSystem, r.CorrWithDBQueue)
				if r.Mix == "browsing" && r.Type == "BestSellers" {
					b.ReportMetric(r.CorrWithDBQueue, "bestseller-queue-corr")
				}
			}
		}
	}
}

// BenchmarkFigure10MVAAccuracy regenerates Fig. 10: MVA predictions
// versus measured throughput — accurate for shopping/ordering, badly
// wrong for browsing (paper: up to 36% error).
func BenchmarkFigure10MVAAccuracy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Figure10(51, benchScale(), nil)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("%-9s %5s %9s %9s %8s", "mix", "EBs", "measured", "MVA", "err%")
			worstBrowsing := 0.0
			for _, r := range rows {
				b.Logf("%-9s %5d %9.1f %9.1f %8.1f", r.Mix, r.EBs, r.Measured, r.MVA, 100*r.MVAErr)
				if r.Mix == "browsing" && r.MVAErr > worstBrowsing {
					worstBrowsing = r.MVAErr
				}
			}
			b.ReportMetric(100*worstBrowsing, "worst-browsing-MVA-err%")
		}
	}
}

// BenchmarkFigure11GranularityImpact regenerates Fig. 11: models fitted
// from Zestim = 0.5 s versus Zestim = 7 s browsing-mix measurements;
// finer effective granularity yields the better model.
func BenchmarkFigure11GranularityImpact(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Figure11(71, benchScale(), nil)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("%5s %9s | %9s %7s | %9s %7s | %15s", "EBs", "measured",
				"model-Z.5", "err%", "model-Z7", "err%", "paper err% (.5/7)")
			for _, r := range rows {
				b.Logf("%5d %9.1f | %9.1f %7.1f | %9.1f %7.1f | %7.1f/%7.1f",
					r.EBs, r.Measured, r.ModelZ05, 100*r.ErrZ05, r.ModelZ7, 100*r.ErrZ7,
					100*r.PaperErr05, 100*r.PaperErr7)
			}
			b.ReportMetric(100*rows[0].ErrZ7, "Z7-err%@25EB")
		}
	}
}

// BenchmarkFigure12MAPModelAccuracy regenerates Fig. 12, the headline
// validation: the MAP queueing network versus MVA versus measurements
// across all three mixes, with the fitted I values per tier.
func BenchmarkFigure12MAPModelAccuracy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		results, err := experiments.Figure12(61, benchScale(), nil)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, res := range results {
				b.Logf("%s: I_front=%.1f (paper %.0f)  I_db=%.1f (paper %.0f)",
					res.Mix, res.IFront, res.PaperIF, res.IDB, res.PaperID)
				b.Logf("%5s %9s %9s %7s %9s %7s", "EBs", "measured", "MAP", "err%", "MVA", "err%")
				for _, r := range res.Rows {
					b.Logf("%5d %9.1f %9.1f %7.1f %9.1f %7.1f",
						r.EBs, r.Measured, r.MAPModel, 100*r.MAPErr, r.MVA, 100*r.MVAErr)
				}
				if res.Mix == "browsing" {
					last := res.Rows[len(res.Rows)-1]
					b.ReportMetric(100*last.MAPErr, "browsing-MAP-err%")
					b.ReportMetric(100*last.MVAErr, "browsing-MVA-err%")
				}
			}
		}
	}
}

// BenchmarkAblationIdleSemantics quantifies the frozen-phase vs
// free-running-phase design choice of the MAP queueing network
// (DESIGN.md section 5).
func BenchmarkAblationIdleSemantics(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.AblationIdleSemantics(benchScale())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("%5s %10s %14s %8s", "EBs", "frozen-X", "free-running-X", "diff%")
			for _, r := range rows {
				b.Logf("%5d %10.1f %14.1f %8.1f", r.EBs, r.FrozenX, r.FreeRunningX, 100*r.RelDifference)
			}
			b.ReportMetric(100*rows[1].RelDifference, "diff%@25EB")
		}
	}
}

// BenchmarkAblationSelectionPolicy compares the paper's default
// closest-p95 MAP(2) selection with the conservative max-lag-1 rule of
// footnote 8.
func BenchmarkAblationSelectionPolicy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.AblationSelectionPolicy(benchScale())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("%5s %12s %10s", "EBs", "closest-p95", "max-lag1")
			for _, r := range rows {
				b.Logf("%5d %12.1f %10.1f", r.EBs, r.ClosestP95X, r.MaxLag1X)
			}
		}
	}
}

// BenchmarkAblationP95Bias reproduces the Section 4.1 claim about the
// busy-period p95 estimator: accurate for I >> 100, biased at low I.
func BenchmarkAblationP95Bias(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.AblationP95Bias(5)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("%8s %10s %10s %8s", "true I", "true p95", "estimate", "bias%")
			for _, r := range rows {
				b.Logf("%8.0f %10.4f %10.4f %8.0f", r.TrueI, r.TrueP95, r.EstimatedP95, 100*r.RelBias)
			}
			b.ReportMetric(100*rows[len(rows)-1].RelBias, "bias%@high-I")
		}
	}
}

// BenchmarkAblationGranularityRecovery isolates the Fig. 11 measurement-
// granularity effect: the same service process monitored at decreasing
// load (fewer completions per window).
func BenchmarkAblationGranularityRecovery(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.AblationGranularityRecovery(7)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("%14s %8s %10s %8s", "jobs/window", "true I", "estimate", "err%")
			for _, r := range rows {
				b.Logf("%14.0f %8.0f %10.0f %8.0f", r.JobsPerWindow, r.TrueI, r.EstimatedI, 100*r.RelError)
			}
		}
	}
}

// BenchmarkAblationBurstinessSweep sweeps the database contention
// intensity of the browsing mix and shows where MVA starts failing.
func BenchmarkAblationBurstinessSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.AblationBurstinessSweep(9, benchScale())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("%10s %8s %10s %10s %8s", "trigger-p", "I_db", "measured", "MVA", "err%")
			for _, r := range rows {
				b.Logf("%10.4f %8.1f %10.1f %10.1f %8.1f",
					r.TriggerProbability, r.IDB, r.MeasuredX, r.MVAX, 100*r.MVAErr)
			}
			b.ReportMetric(100*rows[len(rows)-1].MVAErr, "MVA-err%@max-contention")
		}
	}
}
