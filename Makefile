# Development targets. `make check` is the local tier-1 gate (CI's test
# job runs the same steps with `go test -short`); `make bench` maintains
# the solver performance trajectory in BENCH_solver.json so optimization
# PRs have a baseline to compare against.

GO ?= go

.PHONY: check build test vet fmt-check perfbench-check race faults xvalidate scenario suite serve-smoke paperrepro-check bench benchgate

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

# xvalidate is the sim-vs-solver smoke check: a K=3 replicated simulation
# cross-validated against the exact MAP network within the documented
# tolerance (see internal/validate).
xvalidate:
	$(GO) test -run 'CrossValidation' -v ./internal/validate/

# scenario is the declarative-pipeline smoke check: the committed example
# scenario runs end to end through cmd/burstlab (simulate, characterize,
# fit, solve, cross-validate) and prints its report.
scenario:
	$(GO) run ./cmd/burstlab -scenario examples/scenariofile/scenario.json

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
# backends), and the exact solve of a nearly-decomposable grid cell on
# both backends (SteadyStateNCD) — and archives the numbers (ns/op,
# states, nnz, allocs, throughput) as JSON. -benchtime=1x for the
# seconds-scale solves (a single iteration is already deterministic
# enough for a trajectory); the microsecond-scale MulticlassMVA benches
# run 50 iterations in a separate invocation because their single-run
# timings swing ~2x with scheduler noise, which would make the
# benchgate flaky.
bench:
	$(GO) test -run=NONE -bench='SolveThreeTier|SolveDecomp|Solver|RunSuite|ServiceRepeatQuery' -benchmem -benchtime=1x . > .bench_root.txt
	$(GO) test -run=NONE -bench='MulticlassMVA' -benchmem -benchtime=50x . >> .bench_root.txt
	$(GO) test -run=NONE -bench='GeneratorAssembly|GeneratorBackends|SteadyStateNCD' -benchmem ./internal/mapqn/ > .bench_mapqn.txt
	cat .bench_root.txt .bench_mapqn.txt | $(GO) run ./cmd/benchjson > BENCH_solver.json
	rm -f .bench_root.txt .bench_mapqn.txt
	cat BENCH_solver.json

# benchgate is the perf-regression gate: re-run the bench suite into a
# scratch document and fail if any benchmark's ns/op or B/op regressed
# more than 25% against the committed BENCH_solver.json. CI runs this
# on every push; run it locally before optimization PRs.
benchgate:
	$(GO) test -run=NONE -bench='SolveThreeTier|SolveDecomp|Solver|RunSuite|ServiceRepeatQuery' -benchmem -benchtime=1x . > .bench_root.txt
	$(GO) test -run=NONE -bench='MulticlassMVA' -benchmem -benchtime=50x . >> .bench_root.txt
	$(GO) test -run=NONE -bench='GeneratorAssembly|GeneratorBackends|SteadyStateNCD' -benchmem ./internal/mapqn/ > .bench_mapqn.txt
	cat .bench_root.txt .bench_mapqn.txt | $(GO) run ./cmd/benchjson > .bench_fresh.json
	rm -f .bench_root.txt .bench_mapqn.txt
	$(GO) run ./cmd/benchgate -baseline BENCH_solver.json -fresh .bench_fresh.json
	rm -f .bench_fresh.json
