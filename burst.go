// Package burst is a Go implementation of the methodology of
// "Burstiness in Multi-Tier Applications: Symptoms, Causes, and New
// Models" (Mi, Casale, Cherkasova, Smirni — Middleware 2008): capacity
// planning for multi-tier systems whose workloads exhibit burstiness and
// bottleneck switch.
//
// The library covers the full pipeline of the paper:
//
//   - measure: coarse utilization samples U_k and completion counts n_k
//     per monitoring window (the only inputs required — obtainable from
//     sar plus any transaction monitor);
//   - characterize: estimate the mean service time (utilization law),
//     the index of dispersion I (busy-period counting algorithm of
//     Fig. 2), and the 95th percentile of service times per tier;
//   - fit: build a two-phase Markovian Arrival Process per tier matching
//     (mean, I, p95) exactly on mean and I, selecting on p95;
//   - model: solve the closed MAP queueing network {tiers, think time,
//     N clients} exactly via its CTMC, alongside the classical MVA
//     baseline;
//   - validate: a full TPC-W testbed simulator with the burstiness
//     mechanisms the paper identifies (per-type demands, multi-query
//     transactions, Best-Seller-triggered database contention) acts as
//     the measured system.
//
// The primary API is declarative: describe the whole experiment — tiers,
// workload, population sweep, solver selection — as a Scenario and
// execute it with Run, which returns a unified, JSON-serializable
// Report:
//
//	sc := burst.Scenario{
//		ThinkTime:   0.5,
//		Populations: []int{25, 50, 100, 150},
//		Tiers: []burst.TierSpec{
//			{Name: "front", Samples: &frontSamples},
//			{Name: "db", Samples: &dbSamples},
//		},
//		Solvers: []burst.SolverKind{burst.SolverMAP, burst.SolverMVA},
//	}
//	rep, err := burst.Run(ctx, sc)
//	// rep.Results[i].MAP.Utils, .QueueLens, .QueueDists hold one entry
//	// per tier at population rep.Results[i].Population.
//
// Scenarios round-trip through JSON (ParseScenario / Scenario.JSON), so
// the same experiment runs from a committed scenario file via
// cmd/burstlab. All long-running stages accept context cancellation and
// report progress through Scenario.OnProgress.
//
// The modeling stack is N-tier: a closed tandem chain of K MAP-service
// stations (front, app tiers, database, ...) plus the think-time delay
// station, solved exactly over the CTMC on states
// (n_1..n_K, phase_1..phase_K). The paper's two-tier front+DB model is
// the K=2 special case. Alongside Run, the imperative surface is
// context-aware and N-tier: SolveNetwork, SolveNetworkSweep,
// SolveNetworkDecomp, SolveNetworkDecompSweep, Simulate and
// SimulateReplicas. Cross-validation against the simulated testbed is a
// Scenario with a Workload and the "crossvalidate" solver.
//
// See the examples/ directory for complete programs
// (examples/scenariofile for the declarative path).
package burst

import (
	"repro/internal/core"
	"repro/internal/ctmc"
	"repro/internal/inference"
	"repro/internal/mapqn"
	"repro/internal/markov"
	"repro/internal/mva"
	"repro/internal/queues"
	"repro/internal/stats"
	"repro/internal/tpcw"
	"repro/internal/trace"
	"repro/internal/xrand"
)

// Re-exported core types. The facade keeps downstream users off the
// internal packages while exposing the complete workflow.
type (
	// Trace is a sequence of service times in completion order.
	Trace = trace.T
	// UtilizationSamples is the coarse monitoring input: per-period
	// utilizations and completion counts.
	UtilizationSamples = trace.UtilizationSamples
	// DispersionOptions tunes the index-of-dispersion estimators.
	DispersionOptions = trace.DispersionOptions
	// DispersionEstimate is the output of the Figure 2 algorithm.
	DispersionEstimate = trace.EstimateResult
	// Profile selects a Figure 1 burstiness profile.
	Profile = trace.Profile

	// MAP is a Markovian Arrival Process.
	MAP = markov.MAP
	// FitResult reports a fitted MAP(2) and its achieved descriptors.
	FitResult = markov.FitResult
	// FitOptions tunes the MAP(2) selection procedure.
	FitOptions = markov.FitOptions

	// Characterization is the three-parameter service description
	// (mean, I, p95).
	Characterization = inference.Characterization

	// PlanN is the N-tier capacity-planning model (one Tier per layer).
	PlanN = core.PlanN
	// Tier is one characterized-and-fitted tier of a PlanN.
	Tier = core.Tier
	// PlannerOptions tunes plan construction.
	PlannerOptions = core.PlannerOptions

	// Station is one queueing station of an N-tier MAP network.
	Station = mapqn.Station
	// MAPNetworkModelN is the closed K-station MAP queueing network.
	MAPNetworkModelN = mapqn.NetworkModel
	// MAPNetworkMetricsN is its exact solution, with per-station slices.
	MAPNetworkMetricsN = mapqn.NetworkMetrics
	// MAPNetworkBoundsN brackets an N-tier network's throughput.
	MAPNetworkBoundsN = mapqn.NetworkBoundsResult
	// SolverOptions tunes the CTMC steady-state solver.
	SolverOptions = ctmc.Options
	// DecompOptions tunes the approximate decomposition solver's fixed
	// point (SolverDecomp / SolveNetworkDecomp).
	DecompOptions = mapqn.DecompOptions

	// MVANetwork is the classical product-form baseline.
	MVANetwork = mva.Network
	// MVAResult is the MVA solution at one population.
	MVAResult = mva.Result
	// MultiNetwork is the closed multiclass product-form network.
	MultiNetwork = mva.MultiNetwork
	// MultiResult is the multiclass MVA solution at one per-class
	// population vector.
	MultiResult = mva.MultiResult
	// ClassSpec declares one workload class of a multiclass Scenario.
	ClassSpec = core.ClassSpec
	// ClassDemands is one class resolved to per-tier demands.
	ClassDemands = core.ClassDemands
	// MulticlassPoint is the multiclass-MVA column at one population.
	MulticlassPoint = core.MulticlassPoint
	// ClassResult is one class's multiclass-MVA prediction.
	ClassResult = core.ClassResult
	// ClassValidation compares one class's simulated and modeled behavior.
	ClassValidation = core.ClassValidation
	// TPCWWorkloadClass groups testbed transaction types into one class.
	TPCWWorkloadClass = tpcw.WorkloadClass

	// TPCWMix is one of the standard transaction mixes.
	TPCWMix = tpcw.Mix
	// TPCWConfigN parameterizes an N-tier TPC-W testbed simulation.
	TPCWConfigN = tpcw.ConfigN
	// TPCWTierConfig is one tier of an N-tier testbed.
	TPCWTierConfig = tpcw.TierConfig
	// TPCWTierDemand is one transaction type's demand at one tier.
	TPCWTierDemand = tpcw.TierDemand
	// TPCWResultN is an N-tier testbed run's measurements.
	TPCWResultN = tpcw.ResultN
	// TPCWReplicaResult aggregates independently seeded replicas.
	TPCWReplicaResult = tpcw.ReplicaResult
	// Interval is a mean with a 95% confidence half-width.
	Interval = stats.Interval

	// QueueResult summarizes a single-queue simulation (Table 1).
	QueueResult = queues.Result

	// Source is a seeded random stream.
	Source = xrand.Source
)

// Burstiness profiles of Figure 1.
const (
	ProfileRandom       = trace.ProfileRandom
	ProfileMildBursts   = trace.ProfileMildBursts
	ProfileStrongBursts = trace.ProfileStrongBursts
	ProfileSingleBurst  = trace.ProfileSingleBurst
)

// NewSource returns a seeded random stream for reproducible experiments.
func NewSource(seed int64) *Source { return xrand.New(seed) }

// GenerateBurstyTrace generates n hyperexponential service times (given
// mean and SCV) arranged according to the requested burstiness profile —
// the construction of Figure 1.
func GenerateBurstyTrace(n int, mean, scv float64, profile Profile, src *Source) (Trace, error) {
	return trace.GenerateH2Trace(n, mean, scv, profile, src)
}

// IndexOfDispersion estimates I of a raw service-time trace using the
// counting definition of Eq. (2).
func IndexOfDispersion(t Trace, opts DispersionOptions) (float64, error) {
	return t.IndexOfDispersion(opts)
}

// EstimateIndexOfDispersion runs the paper's Figure 2 algorithm on coarse
// monitoring samples, estimating I of the server's service process.
func EstimateIndexOfDispersion(u UtilizationSamples, opts DispersionOptions) (DispersionEstimate, error) {
	return u.EstimateIndexOfDispersion(opts)
}

// Characterize runs the full Section 4.1 measurement pipeline on one
// server's monitoring samples: mean service time, I, and p95.
func Characterize(u UtilizationSamples) (Characterization, error) {
	return inference.Characterize(u, inference.Options{})
}

// CharacterizeAll characterizes every tier of an N-tier system in one
// call, returning one Characterization per input in visit order.
func CharacterizeAll(tiers []UtilizationSamples) ([]Characterization, error) {
	return inference.CharacterizeAll(tiers, inference.Options{})
}

// FitMAP2 builds a two-phase MAP service process from the paper's three
// measurements (Section 4.1). Pass p95 = 0 when unmeasured.
func FitMAP2(mean, indexOfDispersion, p95 float64, opts FitOptions) (FitResult, error) {
	return markov.FitThreePoint(mean, indexOfDispersion, p95, opts)
}

// SolveMulticlass runs exact multiclass MVA at the given per-class
// population vector. A one-class network with the single-class demands
// reproduces the single-class MVA baseline exactly (pinned by test).
func SolveMulticlass(net MultiNetwork, population []int) (MultiResult, error) {
	return mva.SolveMulticlass(net, population)
}

// SolveMulticlassApprox runs the Schweitzer/Bard approximate multiclass
// MVA, which scales to per-class populations far beyond the exact
// population lattice.
func SolveMulticlassApprox(net MultiNetwork, population []int, tol float64) (MultiResult, error) {
	return mva.SolveMulticlassApprox(net, population, tol)
}

// DefaultTPCWTiers builds a K-tier testbed specification (K >= 2) from
// the default transaction profiles: front, K-2 application tiers, and the
// database with the mix's contention environment.
func DefaultTPCWTiers(mix TPCWMix, k int) ([]TPCWTierConfig, error) {
	return tpcw.DefaultTiers(mix, k)
}

// BrowsingMix, ShoppingMix and OrderingMix return the standard TPC-W
// transaction mixes (95/5, 80/20 and 50/50 browsing/ordering).
func BrowsingMix() TPCWMix { return tpcw.BrowsingMix() }

// ShoppingMix returns the 80/20 mix.
func ShoppingMix() TPCWMix { return tpcw.ShoppingMix() }

// OrderingMix returns the 50/50 mix.
func OrderingMix() TPCWMix { return tpcw.OrderingMix() }

// SimulateMTrace1 simulates the M/Trace/1 queue of Section 2: Poisson
// arrivals, FCFS service replayed from the trace in order.
func SimulateMTrace1(t Trace, arrivalRate float64, src *Source) (QueueResult, error) {
	return queues.MTrace1(t, arrivalRate, src)
}

// HurstParameter estimates the Hurst exponent of a service trace with the
// aggregated-variance method; H > 0.5 indicates long-range dependence
// (the paper relates the index of dispersion to the Hurst parameter).
func HurstParameter(t Trace) (float64, error) {
	est, err := t.HurstAggregatedVariance()
	if err != nil {
		return 0, err
	}
	return est.H, nil
}

// FitMMPP2FromCounts fits a two-state MMPP from counting statistics:
// fundamental rate, index of dispersion, and burst time scale. Use it
// when measurements describe epochs rather than per-request percentiles.
func FitMMPP2FromCounts(rate, indexOfDispersion, burstScale float64) (*MAP, error) {
	return markov.FitMMPP2Counts(rate, indexOfDispersion, burstScale)
}

// HeavyTrafficWait returns the QNA-style heavy-traffic mean waiting time
// of a FCFS queue given utilization, mean service time, the arrivals'
// index of dispersion, and the service SCV (paper Section 5, citing
// Sriram & Whitt).
func HeavyTrafficWait(rho, meanService, indexOfDispersion, scvService float64) (float64, error) {
	return queues.HeavyTrafficWait(rho, meanService, indexOfDispersion, scvService)
}
