package core

import (
	"bytes"
	"encoding/json"
	"fmt"

	"repro/internal/inference"
	"repro/internal/mapqn"
	"repro/internal/mva"
	"repro/internal/stats"
	"repro/internal/trace"
)

// TierReport summarizes one modeled tier of a scenario: the (mean, I,
// p95) characterization the models consumed and, when a MAP(2) was
// fitted, the selected candidate's descriptors.
type TierReport struct {
	Name             string                     `json:"name"`
	Characterization inference.Characterization `json:"characterization"`
	// Demand is the tier's aggregate mean service demand per cycle
	// (visits * mean service time).
	Demand float64 `json:"demand"`
	// FitSCV and FitGamma are the fitted MAP(2)'s marginal SCV and
	// autocorrelation decay (zero when no MAP was fitted, e.g. MVA-only
	// scenarios).
	FitSCV   float64 `json:"fit_scv,omitempty"`
	FitGamma float64 `json:"fit_gamma,omitempty"`
	// AchievedI and AchievedP95 are the fitted process's exact
	// descriptors.
	AchievedI   float64 `json:"achieved_i,omitempty"`
	AchievedP95 float64 `json:"achieved_p95,omitempty"`
}

// SimPoint is the simulated ground truth at one population: across-
// replica means with 95% confidence half-widths.
type SimPoint struct {
	// Replicas is the number of independently seeded replicas behind the
	// intervals.
	Replicas     int            `json:"replicas"`
	Throughput   stats.Interval `json:"throughput"`
	MeanResponse stats.Interval `json:"mean_response"`
	P95Response  stats.Interval `json:"p95_response"`
	// TierUtil[i] is tier i's mean utilization across replicas.
	TierUtil []stats.Interval `json:"tier_util"`
	// ContentionFraction[i] is the share of simulated time tier i spent
	// in a contention epoch, across replicas.
	ContentionFraction []stats.Interval `json:"contention_fraction"`
	// TierNames labels the per-tier slices.
	TierNames []string `json:"tier_names"`
	// TierSamples[i] is tier i's pooled coarse monitoring stream (only
	// when the workload sets KeepSamples).
	TierSamples []trace.UtilizationSamples `json:"tier_samples,omitempty"`
	// CompletedByType[t] counts transactions of type t completed across
	// all replicas' measurement windows; TransactionNames labels the
	// entries.
	CompletedByType  []int64  `json:"completed_by_type,omitempty"`
	TransactionNames []string `json:"transaction_names,omitempty"`
	// ClassNames labels the per-class slices below (the testbed's
	// workload classes — groups of transaction types).
	ClassNames []string `json:"class_names,omitempty"`
	// ClassThroughput[c] and ClassMeanResponse[c] summarize class c's
	// simulated throughput and mean response across replicas.
	ClassThroughput   []stats.Interval `json:"class_throughput,omitempty"`
	ClassMeanResponse []stats.Interval `json:"class_mean_response,omitempty"`
}

// ClassResult is one class's multiclass-MVA prediction at one population.
type ClassResult struct {
	// Name labels the class.
	Name string `json:"name"`
	// Population is the class's customer count at this sweep point.
	Population int `json:"population"`
	// Throughput and ResponseTime are the class's multiclass-MVA
	// predictions (response excludes think time).
	Throughput   float64 `json:"throughput"`
	ResponseTime float64 `json:"response_time"`
}

// MulticlassPoint carries the multiclass MVA solution at one total
// population: per-class throughput/response plus the per-tier aggregates.
type MulticlassPoint struct {
	// Method is "exact" (population-lattice recursion) or "approx"
	// (Schweitzer/Bard, beyond the tractable lattice).
	Method string `json:"method"`
	// Classes holds one entry per declared class, in declaration order.
	Classes []ClassResult `json:"classes"`
	// Throughput is the aggregate throughput (sum over classes).
	Throughput float64 `json:"throughput"`
	// ResponseTime is the throughput-weighted mean response time.
	ResponseTime float64 `json:"response_time"`
	// Utilizations[i] and QueueLengths[i] are tier i's totals across
	// classes.
	Utilizations []float64 `json:"utilizations"`
	QueueLengths []float64 `json:"queue_lengths"`
}

// ClassValidation compares one class's simulated and modeled behavior at
// one population — the per-class face of the cross-validation deltas.
type ClassValidation struct {
	// Name labels the class; Population is the class's share of the
	// operating point's customers, inferred from the measured per-class
	// throughput and response (interactive response law).
	Name       string `json:"name"`
	Population int    `json:"population"`
	// SimThroughput and SimMeanResponse are the simulated per-class
	// measurements across replicas.
	SimThroughput   stats.Interval `json:"sim_throughput"`
	SimMeanResponse stats.Interval `json:"sim_mean_response"`
	// MVAThroughput and MVAResponse are the multiclass-MVA predictions.
	MVAThroughput float64 `json:"mva_throughput"`
	MVAResponse   float64 `json:"mva_response"`
	// MVAError is the signed relative throughput error against the
	// simulated mean; ResponseError the same for mean response.
	MVAError      float64 `json:"mva_error"`
	ResponseError float64 `json:"response_error"`
}

// TierValidation compares one tier's simulated and modeled utilization.
type TierValidation struct {
	Name string `json:"name"`
	// SimUtil is the simulated mean utilization across replicas.
	SimUtil stats.Interval `json:"sim_util"`
	// MAPUtil and MVAUtil are the modeled busy probabilities.
	MAPUtil float64 `json:"map_util"`
	MVAUtil float64 `json:"mva_util"`
	// MAPError and MVAError are signed absolute utilization errors
	// (model minus simulation mean).
	MAPError float64 `json:"map_error"`
	MVAError float64 `json:"mva_error"`
	// IndexOfDispersion is the I inferred from the simulated monitoring
	// stream — the burstiness the MAP model was parameterized with.
	IndexOfDispersion float64 `json:"index_of_dispersion"`
}

// ValidationPoint is the sim-vs-model comparison at one population: the
// paper's cross-validation deltas.
type ValidationPoint struct {
	// SimThroughput is the simulated throughput across replicas.
	SimThroughput stats.Interval `json:"sim_throughput"`
	// MAPThroughput and MVAThroughput are the model predictions.
	MAPThroughput float64 `json:"map_throughput"`
	MVAThroughput float64 `json:"mva_throughput"`
	// MAPError and MVAError are signed relative throughput errors
	// against the simulated mean.
	MAPError float64 `json:"map_error"`
	MVAError float64 `json:"mva_error"`
	// MAPWithinCI reports whether the MAP prediction falls inside the
	// simulation's 95% confidence interval.
	MAPWithinCI bool `json:"map_within_ci"`
	// States is the size of the CTMC the MAP model solved.
	States int `json:"states"`
	// SolverBackend is "csr" when the MAP solve ran (the exact solver
	// stores its generator as a compact Q^T); kept so report bytes do
	// not change.
	SolverBackend string `json:"solver_backend,omitempty"`
	// Tiers holds the per-tier utilization comparison.
	Tiers []TierValidation `json:"tiers"`
	// Classes holds the per-class throughput/response comparison against
	// multiclass MVA (multiclass scenarios only). ClassFallbackReason is
	// set instead when the per-class model could not be built (e.g. a
	// class completed too few transactions to characterize).
	Classes             []ClassValidation `json:"classes,omitempty"`
	ClassFallbackReason string            `json:"class_fallback_reason,omitempty"`
	// Degraded marks a validation whose exact MAP solve failed and was
	// replaced by the decomposition approximation (Decomp) or, if that
	// also failed, by NetworkBounds (Bounds); MAPThroughput/MAPUtil are
	// then zero and MAP errors are not meaningful. FallbackReason
	// explains why and records each hop.
	Degraded       bool   `json:"degraded,omitempty"`
	FallbackReason string `json:"fallback_reason,omitempty"`
	// Decomp is the approximate solution standing in for the exact one
	// when the solve degraded through the decomp hop.
	Decomp *mapqn.NetworkMetrics `json:"decomp,omitempty"`
	// Bounds bracket the MAP network's throughput when the exact solve
	// degraded past the decomposition tier.
	Bounds *mapqn.NetworkBoundsResult `json:"bounds,omitempty"`
}

// PopulationReport carries every requested result at one population
// level; solvers the scenario did not request leave their entry nil.
type PopulationReport struct {
	Population int `json:"population"`
	// MAP is the exact MAP-network solution ("map" solver).
	MAP *mapqn.NetworkMetrics `json:"map,omitempty"`
	// MVA is the product-form baseline ("mva" solver).
	MVA *mva.Result `json:"mva,omitempty"`
	// Decomp is the approximate aggregation/disaggregation solution
	// ("decomp" solver, or the exact solver degrading through it).
	Decomp *mapqn.NetworkMetrics `json:"decomp,omitempty"`
	// DecompError is |X_decomp - X_map| / X_map, recorded whenever both
	// the exact MAP and decomp solutions are present at this population
	// — the approximation's measured throughput error.
	DecompError float64 `json:"decomp_error,omitempty"`
	// Multiclass is the multiclass-MVA solution (scenarios declaring
	// classes; runs alongside whatever single-class solvers requested).
	Multiclass *MulticlassPoint `json:"multiclass,omitempty"`
	// Bounds bracket the MAP network's throughput ("bounds" solver).
	Bounds *mapqn.NetworkBoundsResult `json:"bounds,omitempty"`
	// Sim is the simulated ground truth ("sim"/"crossvalidate" solvers).
	Sim *SimPoint `json:"sim,omitempty"`
	// Validation holds the sim-vs-model deltas ("crossvalidate" solver).
	Validation *ValidationPoint `json:"validation,omitempty"`
}

// Report is the unified, JSON-serializable outcome of running a
// Scenario: the normalized scenario it answers, per-tier model inputs,
// and one PopulationReport per requested population.
type Report struct {
	// Scenario is the executed scenario with defaults materialized.
	Scenario Scenario `json:"scenario"`
	// TierNames labels the modeled tiers (when an analytical solver ran).
	TierNames []string `json:"tier_names,omitempty"`
	// ClassNames labels the declared workload classes (multiclass
	// scenarios only), in declaration order.
	ClassNames []string `json:"class_names,omitempty"`
	// ClassAggregation records how a single-class solver represented a
	// multiclass scenario — e.g. the MAP/CTMC solver, which stays
	// single-class, solving the aggregate per-tier characterizations.
	ClassAggregation string `json:"class_aggregation,omitempty"`
	// Tiers summarizes the modeled tiers' characterizations and fits.
	Tiers []TierReport `json:"tiers,omitempty"`
	// Results holds one entry per population, in scenario order.
	Results []PopulationReport `json:"results"`
	// SolverBackend is "csr" when an exact MAP solve ran (the exact
	// solver stores its generator as a compact Q^T) and empty otherwise.
	// Suite JSONL rows inherit it; the column is kept so that reports
	// and rows keep their bytes.
	SolverBackend string `json:"solver_backend,omitempty"`
	// PeakStates is the largest CTMC solved across the report's
	// populations (MAP sweep and cross-validation solves).
	PeakStates int `json:"peak_states,omitempty"`
	// Degraded marks a report whose exact MAP solve failed
	// (non-convergence, state-space limit, or the scenario deadline
	// expiring mid-solve) and was replaced by the next tier of the
	// fallback chain exact -> decomp -> bounds: the Decomp columns (or,
	// if the decomposition also failed, the Bounds columns) are filled
	// and the MAP columns are absent. Degraded rows must never be
	// mistaken for exact ones — FallbackReason says why the exact solve
	// was abandoned and which hops the chain took.
	Degraded       bool   `json:"degraded,omitempty"`
	FallbackReason string `json:"fallback_reason,omitempty"`
}

// RecordSolverFootprint fills SolverBackend and PeakStates from the
// per-population results. Callers run it once after all solvers finish.
func (r *Report) RecordSolverFootprint() {
	for i := range r.Results {
		res := &r.Results[i]
		if res.MAP != nil {
			if res.MAP.States > r.PeakStates {
				r.PeakStates = res.MAP.States
			}
			if res.MAP.SolverBackend != "" {
				r.SolverBackend = res.MAP.SolverBackend
			}
		}
		if res.Decomp != nil && res.Decomp.States > r.PeakStates {
			r.PeakStates = res.Decomp.States
		}
		if res.Validation != nil {
			if res.Validation.States > r.PeakStates {
				r.PeakStates = res.Validation.States
			}
			if res.Validation.SolverBackend != "" {
				r.SolverBackend = res.Validation.SolverBackend
			}
		}
	}
}

// JSON serializes the report as indented JSON.
func (r *Report) JSON() ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(r); err != nil {
		return nil, fmt.Errorf("core: encode report: %w", err)
	}
	return buf.Bytes(), nil
}

// ParseReport decodes a report produced by Report.JSON.
func ParseReport(data []byte) (*Report, error) {
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("core: parse report: %w", err)
	}
	return &r, nil
}
