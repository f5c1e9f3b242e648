# Development targets. `make check` is the local tier-1 gate (CI's test
# job runs the same steps with `go test -short`); `make bench` maintains
# the solver performance trajectory in BENCH_solver.json so optimization
# PRs have a baseline to compare against.

GO ?= go

.PHONY: check build test vet fmt-check perfbench-check race faults fuzz xvalidate scenario suite serve-smoke paperrepro-check bench benchgate

check: vet fmt-check build test perfbench-check

vet:
	$(GO) vet ./...

# fmt-check fails (listing the offenders) when any file is not gofmt-
# clean; CI runs the same check.
fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# perfbench-check vets and tests the benchmark harness. perfbench is its
# own Go module (it replaces repro with this checkout), so the root
# ./... patterns never compile it; without this step a change to the
# facade it imports could break the benchmark unnoticed.
perfbench-check:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

# race exercises the goroutine-parallel paths (replica-parallel TPC-W
# runs, parallel SpMV) under the race detector; -short skips the
# Short-guarded heavy tests (K=3 cross-validation, large solver cases)
# whose numeric kernels are 10-20x slower under instrumentation — the
# race-relevant parallelism is covered by the replica and SpMV tests.
# The explicit -timeout gives internal/mapqn headroom: its matrix-free
# equivalence tests alone run ~10x slower under the race detector and
# can brush Go's default 10m per-package limit on slower machines.
race:
	$(GO) test -race -short -timeout 30m ./...

# faults runs, under the race detector, the deterministic fault-
# injection suite (every failure policy: fail-fast, continue, retry-
# with-backoff, panic recovery, with errors, panics, and delays injected
# at each pipeline stage via internal/faultinject, and cancellation
# during a fallback solve) and every rung of the solver ladder: the
# scenario fallback tests, the byte-for-byte ladder goldens, the
# cross-validation degradation tests, and the memo's stale-cancellation
# retry.
faults:
	$(GO) test -race -run 'TestFault|TestScenario(StateLimit|DecompRequested|DoubleHop)|TestLadderGoldens|TestCrossValidationDegrades|TestMemoRetry' ./...

# fuzz runs every committed fuzz target (each func Fuzz* that
# `go test -list` finds in the module) for 10 seconds beyond its seed
# corpus. A crash it finds is written under the package's
# testdata/fuzz/ and fails the target; a package whose tests do not
# build fails the step.
fuzz:
	@pkgs=$$($(GO) list ./...) || exit 1; \
	for pkg in $$pkgs; do \
		list=$$($(GO) test -list '^Fuzz' "$$pkg") || exit 1; \
		for target in $$(echo "$$list" | grep '^Fuzz'); do \
			echo "fuzz $$pkg $$target"; \
			$(GO) test -run '^$$' -fuzz "^$$target\$$" -fuzztime 10s -parallel 2 "$$pkg" || exit 1; \
		done; \
	done

# xvalidate is the sim-vs-solver smoke check: a K=3 replicated simulation
# cross-validated against the exact MAP network within the documented
# tolerance, the two ladder degradations, and the byte-for-byte
# cross-validation goldens (see burst_xval_test.go).
xvalidate:
	$(GO) test -run 'CrossValidation' -v .

# scenario is the declarative-pipeline smoke check: the committed example
# scenario runs end to end through cmd/burstlab (simulate, characterize,
# fit, solve, cross-validate) and prints its report. It then closes the
# paper's measure -> plan loop: `burstlab tpcwsim -csv` writes the front
# and db monitoring streams of a simulated testbed to temp files, and
# `burstlab capplan -tiers` plans capacity from them.
scenario:
	$(GO) run ./cmd/burstlab -scenario examples/scenariofile/scenario.json
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	$(GO) build -o "$$tmp/burstlab" ./cmd/burstlab && \
	"$$tmp/burstlab" tpcwsim -mix browsing -ebs 50 -csv front > "$$tmp/front.csv" && \
	"$$tmp/burstlab" tpcwsim -mix browsing -ebs 50 -csv db > "$$tmp/db.csv" && \
	"$$tmp/burstlab" capplan -tiers "$$tmp/front.csv,$$tmp/db.csv" -ebs 25,50,100

# suite is the batch-engine smoke check: the committed example suite
# (database-tier I x population grid) expands, runs over the worker
# pool with stage memoization, and streams its per-cell rows.
suite:
	$(GO) run ./cmd/burstlab -suite examples/suite/suite.json

# serve-smoke is the capacity-planning-service smoke check: start a
# burstlabd daemon, submit the committed examples/service suite through
# `burstlab -remote` (cold, then rerun against the warm shared memo),
# and require the streamed rows to be bit-identical to a local batch
# run, ending with a clean SIGTERM drain.
serve-smoke:
	./scripts/serve-smoke.sh

# paperrepro-check regenerates the paper's tables and figures at quick
# scale (about 45 s) and requires stdout to match the committed golden
# byte for byte: refactors of the pipeline behind cmd/paperrepro must
# not move a single printed digit.
paperrepro-check:
	$(GO) run ./cmd/paperrepro -scale quick -seed 11 > .paperrepro_out.txt
	diff -u testdata/paperrepro_quick_seed11.txt .paperrepro_out.txt
	rm -f .paperrepro_out.txt

# bench runs the solver benchmarks — the end-to-end K=2/K=3/K=4 CTMC
# solves, the warm/cold population sweep, the suite-engine batch run,
# the multiclass MVA solvers (exact lattice and Schweitzer/Bard), and
# the generator microbenches (assembly strategies, CSR vs matrix-free
# backends), the exact solve of a nearly-decomposable grid cell on
# both backends (SteadyStateNCD), the TPC-W simulator on its own
# (SimulateTPCW), and two layers of a what-if memo miss on their own:
# the dense direct solve (SteadyStateDense) and the MAP(2) fit
# (FitThreePoint) — and archives the numbers (ns/op, states, nnz,
# allocs, throughput) as JSON. BENCH_RUNS lists each benchmark function
# as package:benchtime:name: -benchtime=1x for the seconds-scale solves
# (a single iteration is already deterministic enough for a
# trajectory); the tens-of-milliseconds SolveDecomp benches and the
# 0.1-second SimulateTPCW run 10 iterations, and the microsecond- and
# millisecond-scale benches as many as fill one second, because their
# short runs swing by 25% or more with scheduler noise.
#
# The host's speed drifts by 30-60% over minutes and by a third within
# seconds, so each function runs in its own `go test` invocation, right
# after BenchmarkHostProbe, a fixed reference kernel (internal/hostprobe),
# and the whole list runs five times over, one round after another.
# cmd/benchjson records the median of each metric over the five runs of
# a row, taken minutes apart, and the median of all the run's probe
# times; cmd/benchgate compares ns/op at the baseline's host speed. The
# test binaries are built first, so no compilation runs next to a probe.
BENCH_RUNS = .:1x:SolveThreeTier .:1x:SolverSweep .:1x:RunSuite .:1x:ServiceRepeatQuery \
	.:10x:SolveDecomp .:10x:SimulateTPCW .:1s:MulticlassMVA \
	./internal/mapqn/:1s:GeneratorAssembly ./internal/mapqn/:1s:GeneratorBackends \
	./internal/mapqn/:1s:SteadyStateNCD ./internal/ctmc/:1s:SteadyStateDense \
	./internal/markov/:1s:FitThreePoint

define bench-run
	$(GO) test -run=NONE -bench=NONE . ./internal/mapqn/ ./internal/ctmc/ ./internal/markov/ > /dev/null
	for round in 1 2 3 4 5; do \
		for run in $(BENCH_RUNS); do \
			pkg=$${run%%:*}; rest=$${run#*:}; \
			$(GO) test -run=NONE -bench="^Benchmark($${rest#*:}|HostProbe)$$" -benchmem -benchtime=$${rest%%:*} "$$pkg" || exit 1; \
		done; \
	done > .bench_out.txt
	$(GO) run ./cmd/benchjson < .bench_out.txt > $(1)
	rm -f .bench_out.txt
endef

bench:
	$(call bench-run,BENCH_solver.json)
	cat BENCH_solver.json

# benchgate is the perf-regression gate: re-run the bench suite into a
# scratch document and fail if any benchmark's ns/op (at the baseline's
# host speed), B/op or allocs/op regressed more than 25% against the
# committed BENCH_solver.json. CI runs this on every push; run it
# locally before optimization PRs.
benchgate:
	$(call bench-run,.bench_fresh.json)
	$(GO) run ./cmd/benchgate -baseline BENCH_solver.json -fresh .bench_fresh.json
	rm -f .bench_fresh.json
