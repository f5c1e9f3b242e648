package burst

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/inference"
	"repro/internal/mapqn"
	"repro/internal/mva"
	"repro/internal/stats"
	"repro/internal/tpcw"
	"repro/internal/trace"
	"repro/internal/validate"
)

// The declarative Scenario pipeline: one data structure describes the
// whole experiment — tiers, workload, population sweep, solver
// selection — and Run executes it through the library's
// characterize → fit → solve → simulate machinery, returning a unified
// JSON-serializable Report. This is the primary API; the context-aware
// entry points at the end of this file expose single steps of the same
// machinery.
type (
	// Scenario declares one end-to-end experiment.
	Scenario = core.Scenario
	// TierSpec declares one modeled tier (explicit demand or samples).
	TierSpec = core.TierSpec
	// WorkloadSpec declares the simulated TPC-W testbed.
	WorkloadSpec = core.WorkloadSpec
	// SolverKind selects one evaluation method.
	SolverKind = core.SolverKind
	// ProgressEvent is one progress notification from a running scenario.
	ProgressEvent = core.ProgressEvent
	// ProgressFunc observes scenario execution.
	ProgressFunc = core.ProgressFunc

	// Report is the unified outcome of running a Scenario.
	Report = core.Report
	// PopulationReport carries every requested result at one population.
	PopulationReport = core.PopulationReport
	// TierReport summarizes one modeled tier's characterization and fit.
	TierReport = core.TierReport
	// SimPoint is the simulated ground truth at one population.
	SimPoint = core.SimPoint
	// ValidationPoint holds the sim-vs-model deltas at one population.
	ValidationPoint = core.ValidationPoint
	// TierValidation compares one tier's simulated and modeled
	// utilization.
	TierValidation = core.TierValidation
)

// Solver selections for Scenario.Solvers.
const (
	SolverMAP           = core.SolverMAP
	SolverMVA           = core.SolverMVA
	SolverDecomp        = core.SolverDecomp
	SolverBounds        = core.SolverBounds
	SolverSim           = core.SolverSim
	SolverCrossValidate = core.SolverCrossValidate
)

// ZeroWindow marks an explicitly empty warm-up/cool-down window in a
// WorkloadSpec (and in TPCWConfigN).
const ZeroWindow = tpcw.ZeroWindow

// Progress stage names, as reported in ProgressEvent.Stage. The same
// names identify pipeline stages in fault-injection hooks (FaultHook)
// and failed-cell records (CellFailure.Stage).
const (
	StageSimulate     = core.StageSimulate
	StageCharacterize = core.StageCharacterize
	StageFit          = core.StageFit
	StageSolve        = core.StageSolve
	StageValidate     = core.StageValidate
	StageBounds       = core.StageBounds
)

// ParseClassList parses the CLI syntax for workload classes
// ("browsing=3,ordering=1" for mix weights, "browsing:20,ordering:5"
// for fixed per-class populations, bare names for equal weights).
func ParseClassList(s string) ([]ClassSpec, error) { return core.ParseClassList(s) }

// ParseScenario decodes a Scenario from JSON, rejecting unknown fields.
func ParseScenario(data []byte) (Scenario, error) { return core.ParseScenario(data) }

// LoadScenario reads and parses a scenario file.
func LoadScenario(path string) (Scenario, error) { return core.LoadScenario(path) }

// ParseReport decodes a Report produced by Report.JSON.
func ParseReport(data []byte) (*Report, error) { return core.ParseReport(data) }

// progressEmitter serializes OnProgress callbacks across the runner's
// stages (replica progress arrives from worker goroutines).
type progressEmitter struct {
	mu sync.Mutex
	fn ProgressFunc
}

func (p *progressEmitter) emit(ev ProgressEvent) {
	if p.fn == nil {
		return
	}
	p.mu.Lock()
	p.fn(ev)
	p.mu.Unlock()
}

// Run executes a Scenario end to end and returns its Report. It is the
// single entry point of the library's declarative API: the scenario's
// solver selection decides which stages run —
//
//   - "map": exact K-station MAP network (CTMC), solved as one
//     warm-started population sweep;
//   - "mva": the classical product-form baseline;
//   - "bounds": O(N*K) throughput brackets for very large populations;
//   - "sim": the replicated N-tier TPC-W testbed simulation;
//   - "crossvalidate": simulation plus the full measure → characterize →
//     fit → solve loop, reporting model-vs-simulation deltas.
//
// All long-running stages poll ctx and return ctx.Err() promptly after
// cancellation; sc.OnProgress (when set) observes replica completions and
// per-population solves.
func Run(ctx context.Context, sc Scenario) (*Report, error) {
	return runScenario(ctx, sc, nil, nil)
}

// stageInjector is the per-cell fault-injection point: the suite runner
// binds Suite.Inject to one cell's content hash and threads the result
// through the pipeline, which calls it at the entry of every stage.
// Nil (every production Run) means no injection.
type stageInjector func(stage string) error

// fire invokes the injector for a stage, tagging any injected error
// with the stage so failed-cell records attribute it correctly.
func fire(inj stageInjector, stage string) error {
	if inj == nil {
		return nil
	}
	return core.MarkStage(inj(stage), stage)
}

// runScenario executes one scenario, optionally sharing a suite-level
// stage memo (nil runs every stage cold) and a per-cell fault injector
// (nil injects nothing). The memoized stages — characterize, fit, and
// the exact and decomp population sweeps — are deterministic pure
// functions of their inputs, so a memo hit produces a report
// bit-identical to a cold run (pinned by test).
//
// A positive sc.Deadline bounds the cell's wall-clock run; the parent
// context is kept so a deadline expiry mid-solve (degrade down the
// solver ladder) can be told apart from a suite-level cancellation
// (abort).
func runScenario(ctx context.Context, sc Scenario, memo *core.Memo, inj stageInjector) (*Report, error) {
	sc = sc.WithDefaults()
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	parent := ctx
	if sc.Deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(sc.Deadline*float64(time.Second)))
		defer cancel()
	}
	rep := &Report{Scenario: sc, Results: make([]PopulationReport, len(sc.Populations))}
	for i, n := range sc.Populations {
		rep.Results[i].Population = n
	}
	if sc.Multiclass() {
		rep.ClassNames = sc.ClassNames()
	}
	prog := &progressEmitter{fn: sc.OnProgress}
	if sc.WantsModel() {
		if err := runModelSolvers(ctx, parent, sc, rep, prog, memo, inj); err != nil {
			return nil, err
		}
	}
	if sc.WantsSimulation() {
		if err := runSimulationSolvers(ctx, sc, rep, prog, inj); err != nil {
			return nil, err
		}
	}
	rep.RecordSolverFootprint()
	return rep, nil
}

// plannerOptions returns the scenario's planner options by value (the
// zero value when unset).
func plannerOptions(sc Scenario) core.PlannerOptions {
	if sc.Planner != nil {
		return *sc.Planner
	}
	return core.PlannerOptions{}
}

// resolveTierNames merges the three naming sources in precedence order:
// TierSpec names, then Planner.TierNames, then positional defaults.
func resolveTierNames(sc Scenario) ([]string, error) {
	k := len(sc.Tiers)
	names := core.DefaultTierNames(k)
	if sc.Planner != nil && len(sc.Planner.TierNames) != 0 {
		if len(sc.Planner.TierNames) != k {
			return nil, fmt.Errorf("burst: %d planner tier names for %d tiers", len(sc.Planner.TierNames), k)
		}
		copy(names, sc.Planner.TierNames)
	}
	for i, spec := range sc.Tiers {
		if spec.Name != "" {
			names[i] = spec.Name
		}
	}
	return names, nil
}

// characterizeTiers turns every TierSpec into the three-parameter
// characterization the models consume: explicit specs are passed
// through, sampled specs run the Section 4.1 estimation pipeline
// (memoized per distinct sample set when a suite memo is supplied).
func characterizeTiers(sc Scenario, prog *progressEmitter, memo *core.Memo) ([]Characterization, error) {
	popts := plannerOptions(sc)
	chars := make([]Characterization, len(sc.Tiers))
	for i, spec := range sc.Tiers {
		if spec.Samples != nil {
			// Hashing the full sample stream is only worth it when a
			// suite memo can reuse the result; cold runs skip the key.
			var key string
			if memo != nil {
				var err error
				key, err = core.HashJSON(struct {
					Samples   *trace.UtilizationSamples `json:"samples"`
					Inference inference.Options         `json:"inference"`
				}{spec.Samples, popts.Inference})
				if err != nil {
					return nil, fmt.Errorf("burst: tier %d (%s): %w", i, spec.Name, err)
				}
			}
			c, err := memo.Characterize(key, func() (Characterization, error) {
				return inference.Characterize(*spec.Samples, popts.Inference)
			})
			if err != nil {
				return nil, fmt.Errorf("burst: tier %d (%s): %w", i, spec.Name, err)
			}
			chars[i] = c
		} else {
			ix := spec.IndexOfDispersion
			if ix == 0 {
				ix = 1
			}
			chars[i] = Characterization{
				MeanServiceTime:   spec.Mean,
				IndexOfDispersion: ix,
				P95ServiceTime:    spec.P95,
				Converged:         true,
			}
		}
		prog.emit(ProgressEvent{Stage: core.StageCharacterize, Step: i + 1, Total: len(sc.Tiers)})
	}
	return chars, nil
}

// runModelSolvers executes the analytical solvers (map, mva, decomp,
// bounds) over the scenario's declared tiers: characterize, fit a MAP(2)
// per tier, then walk the solver ladder (core.PlanN.SolveLadder), which
// decides how a failed exact solve degrades. With a non-nil memo, the
// per-tier characterizations and fits and the whole population sweeps
// are served from the suite-level stage cache when an identical model
// was already evaluated by another cell.
func runModelSolvers(ctx, parent context.Context, sc Scenario, rep *Report, prog *progressEmitter, memo *core.Memo, inj stageInjector) error {
	if err := fire(inj, StageCharacterize); err != nil {
		return err
	}
	chars, err := core.MemoRetry(ctx, func() ([]Characterization, error) {
		return characterizeTiers(sc, prog, memo)
	})
	if err != nil {
		return core.MarkStage(err, StageCharacterize)
	}
	names, err := resolveTierNames(sc)
	if err != nil {
		return err
	}
	rep.TierNames = names
	popts := plannerOptions(sc)
	popts.TierNames = names

	if sc.Multiclass() {
		if err := solveMulticlassModel(sc, chars, rep, popts); err != nil {
			return core.MarkStage(err, StageSolve)
		}
	}

	if !sc.Wants(SolverMAP) && !sc.Wants(SolverDecomp) && !sc.Wants(SolverBounds) {
		// MVA only: no MAP(2) fitting required — demands suffice.
		rep.Tiers = make([]TierReport, len(chars))
		demands := make([]float64, len(chars))
		for i, c := range chars {
			v := sc.Tiers[i].Visits
			if v == 0 {
				v = 1
			}
			demands[i] = v * c.MeanServiceTime
			rep.Tiers[i] = TierReport{Name: names[i], Characterization: c, Demand: demands[i]}
		}
		res, err := core.MVASweep(mva.ModelN(demands, names, sc.ThinkTime), sc.Populations)
		if err != nil {
			return err
		}
		for i := range res {
			rep.Results[i].MVA = &res[i]
		}
		return nil
	}

	if err := fire(inj, StageFit); err != nil {
		return err
	}
	visits := make([]float64, len(sc.Tiers))
	for i, spec := range sc.Tiers {
		visits[i] = spec.Visits
	}
	plan, err := core.MemoRetry(ctx, func() (*PlanN, error) {
		return core.BuildPlanNFromCharacterizations(chars, visits, sc.ThinkTime, popts, memo)
	})
	if err != nil {
		return core.MarkStage(err, StageFit)
	}
	rep.Tiers = tierReports(plan)
	return plan.SolveLadder(ctx, parent, rep, sc.Solvers, memo, prog.emit, inj)
}

// solveMulticlassModel fills the per-population multiclass-MVA column:
// resolve each class's per-tier demand vector against the characterized
// tiers, split every population over the classes, and solve exact
// multiclass MVA (Schweitzer/Bard beyond the tractable lattice). The MAP
// solver stays single-class — exact multiclass CTMC state spaces explode
// — so a multiclass scenario requesting "map" gets the aggregated-class
// MAP solve alongside, with the aggregation recorded in the report.
func solveMulticlassModel(sc Scenario, chars []Characterization, rep *Report, popts core.PlannerOptions) error {
	classes, err := core.ResolveClassDemands(sc, chars)
	if err != nil {
		return err
	}
	pops := make([][]int, len(sc.Populations))
	for i, n := range sc.Populations {
		pop, err := core.SplitPopulation(sc.Classes, n)
		if err != nil {
			return err
		}
		pops[i] = pop
	}
	results, err := core.SolveMulticlassSweep(core.MultiNetworkFor(classes), pops, popts.Solver.Tol)
	if err != nil {
		return err
	}
	if sc.Wants(SolverMAP) {
		rep.ClassAggregation = "map solver is single-class: its column solves the aggregate per-tier characterizations; per-class predictions come from multiclass MVA"
	}
	for i, mr := range results {
		res := mr.Result
		mp := &MulticlassPoint{
			Method:       mr.Method,
			Classes:      make([]ClassResult, len(classes)),
			Utilizations: res.Utilizations,
			QueueLengths: res.QueueLengths,
		}
		weighted := 0.0
		for c := range classes {
			mp.Classes[c] = ClassResult{
				Name:         classes[c].Name,
				Population:   pops[i][c],
				Throughput:   res.Throughput[c],
				ResponseTime: res.ResponseTime[c],
			}
			mp.Throughput += res.Throughput[c]
			weighted += res.Throughput[c] * res.ResponseTime[c]
		}
		if mp.Throughput > 0 {
			mp.ResponseTime = weighted / mp.Throughput
		}
		rep.Results[i].Multiclass = mp
	}
	return nil
}

// tierReports summarizes a plan's tiers for the report.
func tierReports(plan *PlanN) []TierReport {
	out := make([]TierReport, len(plan.Tiers))
	for i, t := range plan.Tiers {
		out[i] = TierReport{
			Name:             t.Name,
			Characterization: t.Characterization,
			Demand:           t.Demand(),
			FitSCV:           t.Fit.SCV,
			FitGamma:         t.Fit.Gamma,
			AchievedI:        t.Fit.AchievedI,
			AchievedP95:      t.Fit.AchievedP95,
		}
	}
	return out
}

// simConfig materializes the scenario's workload as a testbed
// configuration (EBs is set per population by the caller).
func simConfig(sc Scenario) (TPCWConfigN, error) {
	wl := sc.Workload
	mix, err := mixByName(wl.Mix)
	if err != nil {
		return TPCWConfigN{}, err
	}
	tiers, err := tpcw.DefaultTiers(mix, wl.Tiers)
	if err != nil {
		return TPCWConfigN{}, err
	}
	cfg := TPCWConfigN{
		Mix: mix, Tiers: tiers,
		ThinkTime:       sc.ThinkTime,
		Duration:        wl.Duration,
		Warmup:          wl.Warmup,
		Cooldown:        wl.Cooldown,
		MonitorPeriod:   wl.MonitorPeriod,
		Seed:            wl.Seed,
		StructureWeight: wl.StructureWeight,
	}
	if sc.Multiclass() {
		// Order the testbed's classes as the scenario declared them so the
		// per-class report columns line up with the declaration.
		classes, err := tpcw.ClassesByName(sc.ClassNames())
		if err != nil {
			return TPCWConfigN{}, err
		}
		cfg.Classes = classes
	}
	return cfg, nil
}

// mixByName resolves a WorkloadSpec mix name.
func mixByName(name string) (TPCWMix, error) {
	switch name {
	case "browsing":
		return tpcw.BrowsingMix(), nil
	case "shopping":
		return tpcw.ShoppingMix(), nil
	case "ordering":
		return tpcw.OrderingMix(), nil
	default:
		return TPCWMix{}, fmt.Errorf("burst: unknown mix %q (want browsing, shopping or ordering)", name)
	}
}

// runSimulationSolvers executes the simulation-backed solvers (sim,
// crossvalidate) at every population. A cross-validation whose exact
// MAP solve degraded down the solver ladder marks the whole report
// degraded.
func runSimulationSolvers(ctx context.Context, sc Scenario, rep *Report, prog *progressEmitter, inj stageInjector) error {
	cfg, err := simConfig(sc)
	if err != nil {
		return err
	}
	if err := fire(inj, StageSimulate); err != nil {
		return err
	}
	wl := sc.Workload
	for i, n := range sc.Populations {
		if err := ctx.Err(); err != nil {
			return err
		}
		c := cfg
		c.EBs = n
		pop := n
		rr, err := tpcw.RunReplicasCtx(ctx, c, wl.Replicas, wl.Workers, func(done, total int) {
			prog.emit(ProgressEvent{Stage: core.StageSimulate, Population: pop, Step: done, Total: total})
		})
		if err != nil {
			return core.MarkStage(err, StageSimulate)
		}
		rep.Results[i].Sim = simPoint(rr, wl.KeepSamples, sc.Multiclass())
		if sc.Wants(SolverCrossValidate) {
			if err := fire(inj, StageValidate); err != nil {
				return err
			}
			vrep, err := validate.CrossValidateReplicasCtx(ctx, rr, validate.Options{
				Workers: wl.Workers,
				Planner: plannerOptions(sc),
			})
			if err != nil {
				return core.MarkStage(err, StageValidate)
			}
			vp := validationPoint(vrep, sc.Multiclass())
			rep.Results[i].Validation = vp
			if vp.Degraded {
				rep.Degraded = true
				if rep.FallbackReason == "" {
					rep.FallbackReason = vp.FallbackReason
				}
			}
			prog.emit(ProgressEvent{Stage: core.StageValidate, Population: pop, Step: i + 1, Total: len(sc.Populations)})
		}
	}
	return nil
}

// simPoint converts a replica set into the report's ground-truth column.
// The per-class columns are filled only for multiclass scenarios: the
// testbed always measures its default classes, but a single-class
// scenario's report must stay byte-identical to the pre-class format.
func simPoint(rr *TPCWReplicaResult, keepSamples, multiclass bool) *SimPoint {
	sp := &SimPoint{
		Replicas:         len(rr.Results),
		Throughput:       rr.Throughput,
		MeanResponse:     rr.MeanResponse,
		TierUtil:         rr.AvgUtil,
		TierNames:        rr.TierNames,
		CompletedByType:  make([]int64, tpcw.NumTransactions),
		TransactionNames: make([]string, tpcw.NumTransactions),
	}
	for t := tpcw.Transaction(0); t < tpcw.NumTransactions; t++ {
		sp.TransactionNames[t] = t.String()
		for _, res := range rr.Results {
			sp.CompletedByType[t] += res.CompletedByType[t]
		}
	}
	xs := make([]float64, len(rr.Results))
	for r, res := range rr.Results {
		xs[r] = res.P95Response
	}
	sp.P95Response = stats.MeanCI95(xs)
	sp.ContentionFraction = make([]stats.Interval, len(rr.TierNames))
	for i := range rr.TierNames {
		for r, res := range rr.Results {
			xs[r] = res.ContentionFraction[i]
		}
		sp.ContentionFraction[i] = stats.MeanCI95(xs)
	}
	if keepSamples {
		sp.TierSamples = rr.TierSamples
	}
	if multiclass {
		sp.ClassNames = rr.ClassNames
		sp.ClassThroughput = rr.ClassThroughput
		sp.ClassMeanResponse = rr.ClassMeanResponse
	}
	return sp
}

// validationPoint converts a cross-validation report into the report's
// delta column. Per-class columns are copied only for multiclass
// scenarios (see simPoint).
func validationPoint(v *ValidationReport, multiclass bool) *ValidationPoint {
	vp := &ValidationPoint{
		SimThroughput:  v.SimThroughput,
		MAPThroughput:  v.MAPThroughput,
		MVAThroughput:  v.MVAThroughput,
		MAPError:       v.MAPError,
		MVAError:       v.MVAError,
		MAPWithinCI:    v.MAPWithinCI,
		States:         v.States,
		SolverBackend:  v.SolverBackend,
		Degraded:       v.Degraded,
		FallbackReason: v.FallbackReason,
		Decomp:         v.Decomp,
		Bounds:         v.Bounds,
		Tiers:          make([]TierValidation, len(v.Tiers)),
	}
	for i, t := range v.Tiers {
		vp.Tiers[i] = TierValidation{
			Name:              t.Name,
			SimUtil:           t.SimUtil,
			MAPUtil:           t.MAPUtil,
			MVAUtil:           t.MVAUtil,
			MAPError:          t.MAPError,
			MVAError:          t.MVAError,
			IndexOfDispersion: t.Characterization.IndexOfDispersion,
		}
	}
	if multiclass {
		vp.ClassFallbackReason = v.ClassFallbackReason
		if len(v.Classes) > 0 {
			vp.Classes = make([]ClassValidation, len(v.Classes))
			for c, ca := range v.Classes {
				vp.Classes[c] = ClassValidation{
					Name:            ca.Name,
					Population:      ca.Population,
					SimThroughput:   ca.SimThroughput,
					SimMeanResponse: ca.SimMeanResponse,
					MVAThroughput:   ca.MVAThroughput,
					MVAResponse:     ca.MVAResponse,
					MVAError:        ca.MVAError,
					ResponseError:   ca.ResponseError,
				}
			}
		}
	}
	return vp
}

// Context-aware entry points: single steps of the pipeline (exact and
// decomp network solves, simulation, cross-validation) for callers that
// drive it imperatively, each with cooperative cancellation.

// SolveNetwork solves a closed K-station MAP queueing network exactly,
// with cooperative cancellation.
func SolveNetwork(ctx context.Context, m MAPNetworkModelN, opts SolverOptions) (MAPNetworkMetricsN, error) {
	return mapqn.SolveNetworkCtx(ctx, m, opts)
}

// SolveNetworkSweep solves a K-station MAP network at each population as
// one warm-started sweep, with cooperative cancellation and an optional
// per-population progress callback (nil to disable).
func SolveNetworkSweep(ctx context.Context, stations []Station, thinkTime float64, customers []int, opts SolverOptions, progress SweepProgress) ([]MAPNetworkMetricsN, error) {
	return mapqn.SolveNetworkSweepCtx(ctx, stations, thinkTime, customers, opts, progress)
}

// SolveNetworkDecomp solves a closed K-station MAP network approximately
// by per-station aggregation/disaggregation (O(K*N*phases) states
// instead of the exact product space), with cooperative cancellation.
// The zero DecompOptions selects the defaults.
func SolveNetworkDecomp(ctx context.Context, m MAPNetworkModelN, opts DecompOptions) (MAPNetworkMetricsN, error) {
	return mapqn.SolveNetworkDecompCtx(ctx, m, opts)
}

// SolveNetworkDecompSweep solves a K-station MAP network approximately at
// each population, warm-starting consecutive demand fixed points, with
// cooperative cancellation and an optional progress callback.
func SolveNetworkDecompSweep(ctx context.Context, stations []Station, thinkTime float64, customers []int, opts DecompOptions, progress SweepProgress) ([]MAPNetworkMetricsN, error) {
	return mapqn.SolveNetworkDecompSweepCtx(ctx, stations, thinkTime, customers, opts, progress)
}

// SweepProgress observes a population sweep (see SolveNetworkSweep).
type SweepProgress = mapqn.SweepProgress

// ReplicaProgress observes replica completions (see SimulateReplicas).
type ReplicaProgress = tpcw.ReplicaProgress

// Simulate runs one N-tier TPC-W testbed experiment with cooperative
// cancellation.
func Simulate(ctx context.Context, cfg TPCWConfigN) (*TPCWResultN, error) {
	return tpcw.RunNCtx(ctx, cfg)
}

// SimulateReplicas runs independently seeded replicas of an N-tier
// simulation across goroutines (workers <= 0 uses GOMAXPROCS), with
// cooperative cancellation and an optional progress callback.
func SimulateReplicas(ctx context.Context, cfg TPCWConfigN, replicas, workers int, progress ReplicaProgress) (*TPCWReplicaResult, error) {
	return tpcw.RunReplicasCtx(ctx, cfg, replicas, workers, progress)
}

// CrossValidate closes the measure → characterize → fit → solve loop
// against the simulated N-tier testbed, with cooperative cancellation.
func CrossValidate(ctx context.Context, cfg TPCWConfigN, opts ValidationOptions) (*ValidationReport, error) {
	return validate.CrossValidateCtx(ctx, cfg, opts)
}
