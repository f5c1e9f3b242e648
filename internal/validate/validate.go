// Package validate closes the paper's measure → characterize → fit →
// model loop against the simulated testbed, for an arbitrary number of
// tiers: it runs replicated N-tier simulations, feeds the simulated
// per-tier monitoring streams through the Section 4.1 estimation pipeline
// (inference.CharacterizeAll) into the exact K-station MAP network solver,
// and reports simulation-vs-model throughput and utilization errors — the
// paper's Figure-style cross-validation, generalized from the two-tier
// testbed to any K.
package validate

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/inference"
	"repro/internal/mapqn"
	"repro/internal/stats"
	"repro/internal/tpcw"
)

// Options tunes a cross-validation run.
type Options struct {
	// Replicas is the number of independently seeded simulation replicas
	// (default 3). More replicas tighten the confidence intervals the
	// model is judged against.
	Replicas int
	// Workers caps the goroutines running replicas (GOMAXPROCS when <= 0).
	Workers int
	// ThinkTime overrides the model's think time Z_qn; zero uses the
	// simulation's think time (the standard closed-loop comparison).
	ThinkTime float64
	// Planner tunes the estimation, fitting, and solver stages.
	Planner core.PlannerOptions
	// Progress, when non-nil, observes replica completions during the
	// simulation stage (calls are serialized; see tpcw.ReplicaProgress).
	Progress tpcw.ReplicaProgress
}

// TierAccuracy compares one tier's simulated and modeled utilization.
type TierAccuracy struct {
	// Name labels the tier.
	Name string
	// SimUtil is the simulated mean utilization across replicas.
	SimUtil stats.Interval
	// MAPUtil and MVAUtil are the modeled busy probabilities.
	MAPUtil, MVAUtil float64
	// MAPError and MVAError are signed absolute errors in utilization
	// points (model minus simulation mean).
	MAPError, MVAError float64
	// Characterization is the (mean, I, p95) description inferred from
	// the simulated monitoring stream — the model's only input.
	Characterization inference.Characterization
}

// ClassAccuracy compares one workload class's simulated throughput and
// mean response against the multiclass-MVA prediction at the class's
// share of the population.
type ClassAccuracy struct {
	// Name labels the class; Population is its inferred share of the EBs
	// (interactive response law N_c = X_c*(R_c+Z) on the measured
	// per-class throughput and response, largest-remainder rounded so the
	// shares sum to the operating point's EBs).
	Name       string
	Population int
	// SimThroughput and SimMeanResponse are the simulated per-class
	// measurements across replicas.
	SimThroughput   stats.Interval
	SimMeanResponse stats.Interval
	// MVAThroughput and MVAResponse are the multiclass-MVA predictions.
	MVAThroughput, MVAResponse float64
	// MVAError is the signed relative throughput error against the
	// simulated mean; ResponseError the same for mean response.
	MVAError, ResponseError float64
}

// Report is the outcome of one cross-validation: simulated ground truth
// with confidence intervals, model predictions, and their errors.
type Report struct {
	// EBs and ThinkTime identify the operating point; Replicas the number
	// of simulation replicas behind the ground truth.
	EBs       int
	ThinkTime float64
	Replicas  int

	// SimThroughput is the simulated throughput across replicas.
	SimThroughput stats.Interval
	// MAPThroughput and MVAThroughput are the model predictions.
	MAPThroughput, MVAThroughput float64
	// MAPError and MVAError are relative throughput errors against the
	// simulated mean (signed; positive means the model over-predicts).
	MAPError, MVAError float64
	// MAPWithinCI reports whether the MAP prediction falls inside the
	// simulation's 95% confidence interval.
	MAPWithinCI bool

	// Tiers holds the per-tier utilization comparison.
	Tiers []TierAccuracy
	// Classes holds the per-class comparison against multiclass MVA, one
	// row per workload class of the simulated config (two or more classes
	// only). ClassMethod records the solve used (core.MulticlassExact or
	// core.MulticlassApprox). Per-class estimation is fragile for lightly
	// loaded classes, so any failure sets ClassFallbackReason instead of
	// failing the whole cross-validation.
	Classes             []ClassAccuracy
	ClassMethod         string
	ClassFallbackReason string
	// States is the size of the CTMC the MAP model solved.
	States int
	// SolverBackend names the generator representation the MAP solve
	// used ("csr" or "matrix-free").
	SolverBackend string

	// Degraded marks a validation whose exact MAP solve failed
	// (non-convergence or state-space limit): MAPThroughput and the
	// per-tier MAPUtil columns are zero and the MAP errors are not
	// meaningful. The report then degrades down the scenario pipeline's
	// solver ladder (core.PlanN.SolveLadder) — Decomp carries the
	// aggregation/disaggregation approximation, or Bounds bracket the
	// throughput when the decomposition also fails — with FallbackReason
	// saying why the exact solve was abandoned and which hops were taken.
	Degraded       bool
	FallbackReason string
	// Decomp is the decomposition approximation at EBs when the exact
	// solve degraded and the fixed point converged (nil otherwise).
	Decomp *mapqn.NetworkMetrics
	// Bounds bracket the MAP network's throughput at EBs when the exact
	// solve degraded and the decomposition also failed (nil otherwise).
	Bounds *mapqn.NetworkBoundsResult
}

// CrossValidate runs the closed loop at cfg's operating point: simulate
// (replicated), characterize each tier from the simulated samples, fit a
// MAP(2) per tier, solve the K-station MAP network and the MVA baseline
// at cfg.EBs, and compare against the simulation.
func CrossValidate(cfg tpcw.ConfigN, opts Options) (*Report, error) {
	return CrossValidateCtx(context.Background(), cfg, opts)
}

// CrossValidateCtx is CrossValidate with cooperative cancellation: both
// the replicated simulation and the CTMC solve poll ctx and return
// ctx.Err() promptly when the context is done.
func CrossValidateCtx(ctx context.Context, cfg tpcw.ConfigN, opts Options) (*Report, error) {
	if opts.Replicas == 0 {
		opts.Replicas = 3
	}
	if opts.Replicas < 1 {
		return nil, fmt.Errorf("validate: replicas %d must be >= 1", opts.Replicas)
	}
	cfg = cfg.WithDefaults()
	rr, err := tpcw.RunReplicasCtx(ctx, cfg, opts.Replicas, opts.Workers, opts.Progress)
	if err != nil {
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		return nil, fmt.Errorf("validate: simulation: %w", err)
	}
	return compare(ctx, cfg, rr, opts)
}

// CrossValidateReplicas is CrossValidate starting from an already
// completed replica set (e.g., to evaluate several model variants against
// one simulation).
func CrossValidateReplicas(rr *tpcw.ReplicaResult, opts Options) (*Report, error) {
	return CrossValidateReplicasCtx(context.Background(), rr, opts)
}

// CrossValidateReplicasCtx is CrossValidateReplicas with cooperative
// cancellation of the modeling stage.
func CrossValidateReplicasCtx(ctx context.Context, rr *tpcw.ReplicaResult, opts Options) (*Report, error) {
	if rr == nil || len(rr.Results) == 0 {
		return nil, errors.New("validate: no replica results")
	}
	return compare(ctx, rr.Config, rr, opts)
}

func compare(ctx context.Context, cfg tpcw.ConfigN, rr *tpcw.ReplicaResult, opts Options) (*Report, error) {
	z := opts.ThinkTime
	if z == 0 {
		z = cfg.ThinkTime
	}
	chars, err := inference.CharacterizeAll(rr.TierSamples, opts.Planner.Inference)
	if err != nil {
		return nil, fmt.Errorf("validate: characterization: %w", err)
	}
	popts := opts.Planner
	if len(popts.TierNames) == 0 {
		popts.TierNames = rr.TierNames
	}
	plan, err := core.BuildPlanNFromCharacterizations(chars, z, popts)
	if err != nil {
		return nil, fmt.Errorf("validate: plan: %w", err)
	}
	// The model columns come from the scenario pipeline's solver ladder,
	// so a cross-validation degrades by the same rules as a scenario.
	model := &core.Report{Results: []core.PopulationReport{{Population: cfg.EBs}}}
	if err := plan.SolveLadder(ctx, ctx, model, []core.SolverKind{core.SolverMAP, core.SolverMVA}, nil, nil, nil); err != nil {
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		return nil, fmt.Errorf("validate: model solve: %w", err)
	}
	res := model.Results[0]
	rep := &Report{
		EBs:            cfg.EBs,
		ThinkTime:      z,
		Replicas:       len(rr.Results),
		SimThroughput:  rr.Throughput,
		MVAThroughput:  res.MVA.Throughput,
		Degraded:       model.Degraded,
		FallbackReason: model.FallbackReason,
		Decomp:         res.Decomp,
		Bounds:         res.Bounds,
	}
	if res.MAP != nil {
		rep.MAPThroughput = res.MAP.Throughput
		rep.States = res.MAP.States
		rep.SolverBackend = res.MAP.SolverBackend
		rep.MAPWithinCI = rr.Throughput.Contains(res.MAP.Throughput)
	}
	if rr.Throughput.Mean > 0 {
		rep.MVAError = (rep.MVAThroughput - rr.Throughput.Mean) / rr.Throughput.Mean
		if res.MAP != nil {
			rep.MAPError = (rep.MAPThroughput - rr.Throughput.Mean) / rr.Throughput.Mean
		}
	}
	rep.Tiers = make([]TierAccuracy, len(rr.TierNames))
	for i, name := range rr.TierNames {
		ta := TierAccuracy{
			Name:             name,
			SimUtil:          rr.AvgUtil[i],
			MVAUtil:          res.MVA.Utilizations[i],
			Characterization: chars[i],
		}
		ta.MVAError = ta.MVAUtil - ta.SimUtil.Mean
		if res.MAP != nil {
			ta.MAPUtil = res.MAP.Utils[i]
			ta.MAPError = ta.MAPUtil - ta.SimUtil.Mean
		}
		rep.Tiers[i] = ta
	}
	classColumns(rep, cfg, rr, z, opts)
	return rep, nil
}

// classColumns fills the per-class comparison: characterize each class
// from its pooled per-tier streams, split the operating point's EBs over
// the classes by their measured behavior, solve multiclass MVA at that
// split, and report per-class throughput/response errors. Any failure —
// e.g. a class too lightly loaded to characterize — records a fallback
// reason instead of failing the row.
func classColumns(rep *Report, cfg tpcw.ConfigN, rr *tpcw.ReplicaResult, z float64, opts Options) {
	if len(rr.ClassNames) < 2 {
		return
	}
	chars, err := inference.CharacterizeClasses(rr.ClassTierSamples, opts.Planner.Inference)
	if err != nil {
		rep.ClassFallbackReason = err.Error()
		return
	}
	classes := make([]core.ClassDemands, len(rr.ClassNames))
	specs := make([]core.ClassSpec, len(rr.ClassNames))
	for c, name := range rr.ClassNames {
		d := make([]float64, len(chars[c]))
		for i, ch := range chars[c] {
			d[i] = ch.MeanServiceTime
		}
		classes[c] = core.ClassDemands{Name: name, Demands: d, ThinkTime: z}
		specs[c] = core.ClassSpec{
			Name:   name,
			Weight: rr.ClassThroughput[c].Mean * (rr.ClassMeanResponse[c].Mean + z),
		}
	}
	pop, err := core.SplitPopulation(specs, cfg.EBs)
	if err != nil {
		rep.ClassFallbackReason = err.Error()
		return
	}
	results, err := core.SolveMulticlassSweep(core.MultiNetworkFor(classes), [][]int{pop}, opts.Planner.Solver.Tol)
	if err != nil {
		rep.ClassFallbackReason = err.Error()
		return
	}
	res := results[0].Result
	rep.ClassMethod = results[0].Method
	rep.Classes = make([]ClassAccuracy, len(rr.ClassNames))
	for c, name := range rr.ClassNames {
		ca := ClassAccuracy{
			Name:            name,
			Population:      pop[c],
			SimThroughput:   rr.ClassThroughput[c],
			SimMeanResponse: rr.ClassMeanResponse[c],
			MVAThroughput:   res.Throughput[c],
			MVAResponse:     res.ResponseTime[c],
		}
		if ca.SimThroughput.Mean > 0 {
			ca.MVAError = (ca.MVAThroughput - ca.SimThroughput.Mean) / ca.SimThroughput.Mean
		}
		if ca.SimMeanResponse.Mean > 0 {
			ca.ResponseError = (ca.MVAResponse - ca.SimMeanResponse.Mean) / ca.SimMeanResponse.Mean
		}
		rep.Classes[c] = ca
	}
}
