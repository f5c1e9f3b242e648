package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"

	burst "repro"
	"repro/internal/core"
	"repro/internal/trace"
)

// runCapplan is `burstlab capplan`: plan capacity from per-tier
// monitoring CSVs.
func runCapplan(ctx context.Context, args []string) error {
	sc, err := capplanScenario(args)
	if err != nil {
		return err
	}
	_, err = runLocal(ctx, sc, false, "")
	return err
}

// capplanScenario parses capplan's flags into a scenario: one sampled
// tier per CSV, a population sweep, and the map+mva solvers plus the
// optional decomp and bounds.
func capplanScenario(args []string) (burst.Scenario, error) {
	fs := flag.NewFlagSet("capplan", flag.ContinueOnError)
	tiersList := fs.String("tiers", "", "comma-separated per-tier monitoring CSVs (utilization,completions) in visit order")
	namesList := fs.String("names", "", "comma-separated tier names for -tiers (default front,app...,db)")
	period := fs.Float64("period", 5, "sampling period of the CSVs in seconds")
	z := fs.Float64("z", 0.5, "think time Z_qn for the what-if model")
	ebsList := fs.String("ebs", "25,50,75,100,150", "comma-separated EB counts to evaluate")
	withBounds := fs.Bool("bounds", false, "also bracket throughput with product-form bounds")
	withDecomp := fs.Bool("decomp", false, "also run the near-decomposable approximation (per-station fixed point) and report its error against the exact solve")
	classes := fs.String("classes", "", `workload classes for a multiclass what-if ("gold=3,bronze=1" for mix weights, "gold:20,bronze:5" for fixed per-class populations)`)
	if err := fs.Parse(args); err != nil {
		return burst.Scenario{}, err
	}

	paths := core.ParseNameList(*tiersList)
	if len(paths) == 0 {
		return burst.Scenario{}, errors.New("-tiers is required (one monitoring CSV per tier)")
	}
	names := core.ParseNameList(*namesList)
	if len(names) > 0 && len(names) != len(paths) {
		return burst.Scenario{}, fmt.Errorf("-names lists %d names for %d tiers", len(names), len(paths))
	}
	populations, err := core.ParseIntList(*ebsList)
	if err != nil {
		return burst.Scenario{}, fmt.Errorf("-ebs: %w", err)
	}
	sc := burst.Scenario{
		Name:        "capplan",
		ThinkTime:   *z,
		Populations: populations,
		Solvers:     []burst.SolverKind{burst.SolverMAP, burst.SolverMVA},
	}
	if *withDecomp {
		sc.Solvers = append(sc.Solvers, burst.SolverDecomp)
	}
	if *withBounds {
		sc.Solvers = append(sc.Solvers, burst.SolverBounds)
	}
	if *classes != "" {
		if sc.Classes, err = burst.ParseClassList(*classes); err != nil {
			return burst.Scenario{}, fmt.Errorf("-classes: %w", err)
		}
	}
	for i, path := range paths {
		f, err := os.Open(path)
		if err != nil {
			return burst.Scenario{}, err
		}
		samples, err := trace.ReadUtilizationCSV(f, *period)
		f.Close()
		if err != nil {
			return burst.Scenario{}, fmt.Errorf("tier %d (%s): %w", i, path, err)
		}
		tier := burst.TierSpec{Samples: &samples}
		if len(names) > 0 {
			tier.Name = names[i]
		}
		sc.Tiers = append(sc.Tiers, tier)
	}
	return sc, nil
}

// runTpcwsim is `burstlab tpcwsim`: simulate the TPC-W testbed and
// print the summary, or with -csv only the named tier's monitoring
// stream.
func runTpcwsim(ctx context.Context, args []string) error {
	sc, csvTier, err := tpcwsimScenario(args)
	if err != nil {
		return err
	}
	csv := csvTier != ""
	rep, err := runLocal(ctx, sc, csv, "")
	if err != nil || !csv {
		return err
	}
	return emitTierCSV(os.Stdout, rep.Results[0].Sim, csvTier)
}

// tpcwsimScenario parses tpcwsim's flags into a workload scenario with
// the sim (or, with -validate, crossvalidate) solver, and returns the
// -csv tier. Every flag conflict and an unknown -csv tier are reported
// here, before anything is simulated.
func tpcwsimScenario(args []string) (burst.Scenario, string, error) {
	fs := flag.NewFlagSet("tpcwsim", flag.ContinueOnError)
	mixName := fs.String("mix", "browsing", "transaction mix: browsing, shopping or ordering")
	ebs := fs.String("ebs", "100", "comma-separated emulated-browser counts to simulate")
	z := fs.Float64("z", 0.5, "mean think time in seconds")
	duration := fs.Float64("duration", 1800, "simulated seconds")
	warmup := fs.Float64("warmup", 120, "warm-up seconds excluded from analysis (0 or negative for exactly zero)")
	cooldown := fs.Float64("cooldown", 60, "cool-down seconds excluded from analysis (0 or negative for exactly zero)")
	seed := fs.Int64("seed", 1, "random seed")
	tiers := fs.Int("tiers", 2, "number of service tiers (front, app..., db)")
	replicas := fs.Int("replicas", 1, "independently seeded replicas to run (with -validate, unset means 3)")
	workers := fs.Int("workers", 0, "max goroutines for replicas (0 = GOMAXPROCS)")
	doValidate := fs.Bool("validate", false, "cross-validate the simulation against the MAP and MVA models")
	csvTier := fs.String("csv", "", "emit monitoring CSV (utilization,completions) for the named tier (front, app..., db)")
	if err := fs.Parse(args); err != nil {
		return burst.Scenario{}, "", err
	}
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })

	if *doValidate && *csvTier != "" {
		return burst.Scenario{}, "", errors.New("-csv cannot be combined with -validate (the validation report is not CSV)")
	}
	if *replicas < 1 {
		return burst.Scenario{}, "", fmt.Errorf("replicas %d must be >= 1", *replicas)
	}
	populations, err := core.ParseIntList(*ebs)
	if err != nil {
		return burst.Scenario{}, "", fmt.Errorf("-ebs: %w", err)
	}
	if *csvTier != "" {
		if len(populations) != 1 {
			return burst.Scenario{}, "", fmt.Errorf("-csv needs a single -ebs value (got %d populations)", len(populations))
		}
		// -tiers 0 means two; any other count below two fails the
		// scenario's validation before the simulation starts.
		if names := core.DefaultTierNames(max(*tiers, 2)); !slices.Contains(names, *csvTier) {
			return burst.Scenario{}, "", fmt.Errorf("unknown tier %q (have %v)", *csvTier, names)
		}
	}

	wl := &burst.WorkloadSpec{
		Mix:         *mixName,
		Tiers:       *tiers,
		Duration:    *duration,
		Warmup:      cliWindow(*warmup, set["warmup"]),
		Cooldown:    cliWindow(*cooldown, set["cooldown"]),
		Seed:        *seed,
		Replicas:    *replicas,
		Workers:     *workers,
		KeepSamples: *csvTier != "",
	}
	sc := burst.Scenario{
		Name:        "tpcwsim",
		ThinkTime:   *z,
		Populations: populations,
		Workload:    wl,
		Solvers:     []burst.SolverKind{burst.SolverSim},
	}
	if *doValidate {
		sc.Solvers = []burst.SolverKind{burst.SolverCrossValidate}
		// A 1-replica validation carries no confidence interval; unless
		// the user asked for a replica count, let the scenario default
		// (3) apply so the report's ± columns mean something.
		if !set["replicas"] {
			wl.Replicas = 0
		}
	}
	return sc, *csvTier, nil
}

// cliWindow maps a -warmup/-cooldown value to the library's window
// semantics: on the command line an explicit 0 means "analyze the whole
// run" (the ZeroWindow sentinel), whereas an untouched flag keeps the
// library default. set reports whether the flag was given.
func cliWindow(value float64, set bool) float64 {
	if value == 0 && set {
		return burst.ZeroWindow
	}
	return value
}

// emitTierCSV writes one simulated tier's monitoring stream as
// "utilization,completions" lines, capplan's input format.
func emitTierCSV(w io.Writer, sim *burst.SimPoint, tier string) error {
	i := slices.Index(sim.TierNames, tier)
	if i < 0 {
		return fmt.Errorf("unknown tier %q (have %v)", tier, sim.TierNames)
	}
	s := sim.TierSamples[i]
	for k := range s.Utilization {
		if _, err := fmt.Fprintf(w, "%.6f,%.1f\n", s.Utilization[k], s.Completions[k]); err != nil {
			return err
		}
	}
	return nil
}
