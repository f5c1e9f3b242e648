package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"slices"
	"sort"
	"time"

	burst "repro"
	"repro/internal/core"
	"repro/internal/inference"
)

// batchSession runs the batch workloads (grid-exact, wide-decomp,
// xval-sim): one measured pass runs every suite of the workload through
// burst.RunSuite into a JSON Lines sink, one suite after the other.
type batchSession struct {
	suites []burst.Suite
	cells  map[string]burst.SuiteCell // every expanded cell, by content hash
	// digest is the rows digest of the first untraced and the first
	// traced pass; a traced pass may keep the simulated samples.
	digest map[bool]string
	// knownFailures lists the known non-converging cells of the first
	// pass, printed once.
	knownFailures []string
	last          batchPass // what the pass just run left for check
}

// batchPass is one pass's output, kept for check.
type batchPass struct {
	traced  bool
	suites  []burst.Suite
	log     *hookLog
	rows    []burst.SuiteRow
	memo    burst.MemoStats
	windows []suiteWindow
}

func newBatchSession(inputs [][]byte) (*batchSession, error) {
	b := &batchSession{cells: map[string]burst.SuiteCell{}, digest: map[bool]string{}}
	for _, in := range inputs {
		s, err := burst.ParseSuite(in)
		if err != nil {
			return nil, err
		}
		if err := b.expand(s); err != nil {
			return nil, err
		}
		b.suites = append(b.suites, s)
	}
	return b, nil
}

// expand records a suite's cells by content hash.
func (b *batchSession) expand(s burst.Suite) error {
	cells, err := s.Expand()
	if err != nil {
		return err
	}
	for _, c := range cells {
		b.cells[c.Hash] = c
	}
	return nil
}

// rowClock is the sink's writer: it discards the JSON Lines and records
// when each line arrived, in milliseconds since the pass started.
type rowClock struct {
	start time.Time
	at    []float64
}

func (c *rowClock) Write(p []byte) (int, error) {
	now := msSince(c.start)
	for n := bytes.Count(p, []byte{'\n'}); n > 0; n-- {
		c.at = append(c.at, now)
	}
	return len(p), nil
}

func msSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }

// suiteWindow is when one suite of a pass ran, for the idle-worker sum.
type suiteWindow struct {
	start, end time.Duration
	workers    int
}

func (b *batchSession) pass(traced bool) (passResult, error) {
	last := batchPass{traced: traced}
	var res passResult
	start := time.Now()
	if traced {
		last.log = newHookLog()
	}
	for _, s := range b.suites {
		suite := s
		if traced {
			traceSuite(&suite, last.log)
		}
		clock := &rowClock{start: start}
		from := time.Since(start)
		rep, err := burst.RunSuite(context.Background(), suite, burst.NewJSONLSink(clock))
		if err != nil {
			return passResult{}, fmt.Errorf("%s: %w", suite.Name, err)
		}
		last.windows = append(last.windows, suiteWindow{from, time.Since(start), suite.Workers})
		// The last line is the suite's footer row, not a cell.
		if n := len(clock.at); n > 0 {
			res.latencies = append(res.latencies, clock.at[:n-1]...)
		}
		last.suites = append(last.suites, suite)
		last.rows = append(last.rows, rep.Rows...)
		last.memo = addMemo(last.memo, rep.Memo)
	}
	res.wall = time.Since(start)
	b.last = last
	return res, nil
}

func (b *batchSession) check(res *passResult) error {
	// Dropped here, so that the next pass does not carry these rows.
	last := b.last
	b.last = batchPass{}
	digest, err := rowsDigest(last.rows)
	if err != nil {
		return err
	}
	first := b.digest[last.traced] == ""
	if first {
		b.digest[last.traced] = digest
	} else if digest != b.digest[last.traced] {
		res.violations = append(res.violations, fmt.Sprintf("rows digest %s differs from the first pass's %s", digest, b.digest[last.traced]))
	}
	known := tally(last.rows, res)
	if first && !last.traced {
		b.knownFailures = known
	}
	if last.traced {
		// A traced pass's suites may differ from the plain ones (kept
		// samples), and so may their cells' hashes.
		for _, s := range last.suites {
			if err := b.expand(s); err != nil {
				return err
			}
		}
		spans, layers := b.layers(last.log, last.rows, last.windows, last.memo)
		layers["core.suite.failed_frac"] = float64(len(known)+res.failed) / float64(len(last.rows))
		res.spans, res.layers = spans, layers
	}
	return nil
}

// tally counts a pass's rows into res: every row is attempted; a row that
// failed for any reason other than a known non-convergence is failed; the
// rest go through the correctness gate. It returns the known
// non-convergences, with their stage and message.
func tally(rows []burst.SuiteRow, res *passResult) (known []string) {
	for _, row := range rows {
		res.attempted++
		switch {
		case isKnownNonConvergence(row):
			known = append(known, fmt.Sprintf("%s: stage %s: %s", row.Name, row.Error.Stage, row.Error.Message))
		case row.Status != burst.CellStatusOK || row.Report == nil:
			res.failed++
			msg := row.Status
			if row.Error != nil {
				msg = row.Error.Stage + ": " + row.Error.Message
			}
			res.failures = append(res.failures, fmt.Sprintf("%s failed: %s", row.Name, msg))
		default:
			res.violations = append(res.violations, checkReport(row.Report)...)
		}
	}
	return known
}

func addMemo(a, b burst.MemoStats) burst.MemoStats {
	a.CharHits += b.CharHits
	a.CharMisses += b.CharMisses
	a.FitHits += b.FitHits
	a.FitMisses += b.FitMisses
	a.SolveHits += b.SolveHits
	a.SolveMisses += b.SolveMisses
	a.Evictions += b.Evictions
	a.Entries += b.Entries
	a.Bytes += b.Bytes
	return a
}

// traceSuite binds the public hooks of a suite to the pass's event log.
// A simulating suite also keeps the pooled monitoring streams in its rows,
// so that the traced pass can time their characterization; untraced
// passes leave them out, as the workload asks.
func traceSuite(s *burst.Suite, log *hookLog) {
	s.OnProgress = func(ev burst.SuiteEvent) {
		kind := evCellEnd
		if ev.Stage == burst.SuiteStageStart {
			kind = evCellStart
		}
		log.add(hookEvent{kind: kind, cell: ev.Cell.Hash, stage: ev.Stage})
	}
	s.Inject = func(hash, stage string) error {
		log.add(hookEvent{kind: evInject, cell: hash, stage: stage})
		return nil
	}
	s.Base.OnProgress = func(ev burst.ProgressEvent) {
		log.add(hookEvent{kind: evProgress, stage: ev.Stage, pop: ev.Population})
	}
	if w := s.Base.Workload; w != nil {
		kept := *w
		kept.KeepSamples = true
		s.Base.Workload = &kept
	}
}

// cellTrace gathers one cell's events.
type cellTrace struct {
	hash       string
	start, end time.Duration
	failed     bool
	injects    []hookEvent
	progress   []hookEvent
}

// attribute assigns every event to its cell: cell and inject events name
// it; a progress event belongs to the cell its goroutine is running, or,
// when it comes from a simulation worker, to the cell started last among
// those still running (xval-sim, the one workload that simulates, runs
// one cell at a time).
func attribute(events []hookEvent) []*cellTrace {
	sort.SliceStable(events, func(i, j int) bool { return events[i].at < events[j].at })
	var order, active []*cellTrace
	byHash := map[string]*cellTrace{}
	running := map[uint64]*cellTrace{}
	for _, ev := range events {
		switch ev.kind {
		case evCellStart:
			ct := &cellTrace{hash: ev.cell, start: ev.at}
			byHash[ev.cell] = ct
			order = append(order, ct)
			running[ev.gid] = ct
			active = append(active, ct)
		case evCellEnd:
			if ct := byHash[ev.cell]; ct != nil {
				ct.end = ev.at
				ct.failed = ev.stage == burst.SuiteStageFail
				active = slices.DeleteFunc(active, func(a *cellTrace) bool { return a == ct })
			}
		case evInject:
			if ct := byHash[ev.cell]; ct != nil {
				ct.injects = append(ct.injects, ev)
				running[ev.gid] = ct
			}
		case evProgress:
			ct := running[ev.gid]
			if (ct == nil || ct.end != 0) && len(active) > 0 {
				ct = active[len(active)-1]
			}
			if ct != nil {
				ct.progress = append(ct.progress, ev)
			}
		}
	}
	return order
}

// layers turns a traced pass's events and rows into spans and the
// per-layer metrics.
func (b *batchSession) layers(log *hookLog, rows []burst.SuiteRow, windows []suiteWindow, memo burst.MemoStats) (*spanSet, map[string]float64) {
	byHash := map[string]*burst.SuiteRow{}
	for i := range rows {
		byHash[rows[i].Hash] = &rows[i]
	}
	ss := &spanSet{}
	cellWait := 0.0
	for _, ct := range attribute(log.events) {
		cell := b.cells[ct.hash]
		cs := ss.add("core.suite.cell", nil, ct.hash, ct.start, ct.end)
		for _, w := range windows {
			if ct.start >= w.start && ct.start <= w.end {
				cellWait += (ct.start - w.start).Seconds()
			}
		}
		var rep *burst.Report
		if row := byHash[ct.hash]; row != nil {
			rep = row.Report
		}
		for i, inj := range ct.injects {
			end := ct.end
			if i+1 < len(ct.injects) {
				end = ct.injects[i+1].at
			}
			in := progressWithin(ct.progress, inj.at, end)
			switch inj.stage {
			case burst.StageCharacterize:
				ss.add("core.characterize", cs, ct.hash, inj.at, end)
			case burst.StageFit:
				ss.add("markov.fit", cs, ct.hash, inj.at, end)
			case burst.StageSolve:
				solveSpans(ss, cs, cell.Scenario, rep, ct.failed, inj.at, end, in)
			case burst.StageSimulate:
				if last := lastOf(in, burst.StageSimulate); last != nil {
					end = last.at
				}
				ss.add("tpcw.sim", cs, ct.hash, inj.at, end)
			case burst.StageValidate:
				if v := lastOf(in, burst.StageValidate); v != nil {
					end = v.at
				}
				ss.add("validate", cs, ct.hash, inj.at, end)
			}
		}
	}

	busy := ss.busy("core.suite.cell")
	capacity := 0.0
	for _, w := range windows {
		capacity += float64(w.workers) * (w.end - w.start).Seconds()
	}
	l := map[string]float64{
		"core.suite.cell_busy_s":   busy,
		"core.suite.cell_wait_s":   cellWait,
		"core.suite.idle_worker_s": capacity - busy,
		"core.suite.self_s":        ss.selfTime("core.suite.cell"),
		"mapqn.exact.busy_s":       ss.busy("mapqn.exact"),
		"mapqn.decomp.busy_s":      ss.busy("mapqn.decomp"),
		"mapqn.bounds.busy_s":      ss.busy("mapqn.bounds"),
		"markov.fit.busy_s":        ss.busy("markov.fit"),
		"markov.fit.calls":         float64(memo.FitMisses),
		"tpcw.sim.busy_s":          ss.busy("tpcw.sim"),
		"validate.busy_s":          ss.busy("validate"),
	}
	solverCounts(ss, "mapqn.exact", l)
	solverCounts(ss, "mapqn.decomp", l)
	l["mapqn.decomp.failed"] = float64(ss.count("mapqn.decomp", "failed"))
	memoLayers(memo, l)

	// Direct timing of the public calls the program makes on the same
	// inputs: canonical hashing of the suites and their cells, and the
	// characterization of the simulated monitoring streams.
	t := time.Now()
	for _, s := range b.suites {
		core.HashJSON(s) //nolint:errcheck // timed only; Expand already hashed these inputs
	}
	for _, c := range b.cells {
		core.HashJSON(c.Scenario) //nolint:errcheck
	}
	l["core.canonical.hash_busy_s"] = time.Since(t).Seconds()
	var completions int64
	windowsSeen, charBusy, states, errMax := 0, 0.0, 0, 0.0
	for _, row := range rows {
		if row.Report == nil {
			continue
		}
		for _, pr := range row.Report.Results {
			if sim := pr.Sim; sim != nil {
				for _, c := range sim.CompletedByType {
					completions += c
				}
				if len(sim.TierSamples) > 0 {
					t := time.Now()
					if _, err := inference.CharacterizeAll(sim.TierSamples, inference.Options{}); err == nil {
						charBusy += time.Since(t).Seconds()
					}
					for _, s := range sim.TierSamples {
						windowsSeen += len(s.Utilization)
					}
				}
			}
			if v := pr.Validation; v != nil {
				states += v.States
				errMax = math.Max(errMax, math.Abs(v.MAPError))
			}
		}
	}
	l["tpcw.sim.completions"] = float64(completions)
	l["tpcw.sim.completions_per_s"] = ratio(float64(completions), l["tpcw.sim.busy_s"])
	l["inference.characterize.busy_s"] = charBusy
	l["inference.characterize.windows"] = float64(windowsSeen)
	l["validate.states"] = float64(states)
	l["validate.map_err_max"] = errMax
	return ss, l
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// memoLayers records a run's stage-cache counters.
func memoLayers(m burst.MemoStats, l map[string]float64) {
	l["core.memo.hits"] = float64(m.Hits())
	l["core.memo.misses"] = float64(m.Misses())
	l["core.memo.hit_ratio"] = ratio(float64(m.Hits()), float64(m.Hits()+m.Misses()))
	l["core.memo.evictions"] = float64(m.Evictions)
	l["core.memo.bytes"] = float64(m.Bytes)
}

// solverCounts sums the per-solve attributes of one solver's spans.
func solverCounts(ss *spanSet, name string, l map[string]float64) {
	solves, states, iters, power, peak := 0, 0.0, 0.0, 0, 0.0
	for _, s := range ss.spans {
		if s.Name != name || s.Attrs["solved"] == 0 {
			continue
		}
		solves++
		states += s.Attrs["states"]
		iters += s.Attrs["iterations"]
		peak = math.Max(peak, s.Attrs["states"])
		if s.Attrs["power"] != 0 {
			power++
		}
	}
	l[name+".solves"] = float64(solves)
	l[name+".iterations"] = iters
	if name == "mapqn.exact" {
		l[name+".states"] = states
		l[name+".peak_states"] = peak
		l[name+".power_frac"] = ratio(float64(power), float64(solves))
	}
}

func progressWithin(evs []hookEvent, from, to time.Duration) []hookEvent {
	var out []hookEvent
	for _, ev := range evs {
		if ev.at >= from && ev.at <= to {
			out = append(out, ev)
		}
	}
	return out
}

func lastOf(evs []hookEvent, stage string) *hookEvent {
	for i := len(evs) - 1; i >= 0; i-- {
		if evs[i].stage == stage {
			return &evs[i]
		}
	}
	return nil
}

// solveSpans splits a cell's solve stage at its progress events. The
// pipeline solves decomp (when requested) before the exact sweep, each
// emitting one event per population after solving it, then computes
// bounds per population. A memoized sweep replays no events, so its
// lookup becomes one span marked memo. A failed cell's trailing interval
// is the solve that failed.
func solveSpans(ss *spanSet, cell *span, sc burst.Scenario, rep *burst.Report, failed bool, from, to time.Duration, evs []hookEvent) {
	wants := map[burst.SolverKind]bool{}
	for _, k := range sc.Solvers {
		wants[k] = true
	}
	nPops := len(sc.Populations)
	kind := func(k int) string {
		if wants[burst.SolverDecomp] && k < nPops {
			return "mapqn.decomp"
		}
		return "mapqn.exact"
	}
	prev, solved := from, 0
	for _, ev := range evs {
		switch ev.stage {
		case burst.StageSolve:
			name := kind(solved)
			s := ss.add(name, cell, cell.Cell, prev, ev.at)
			s.Attrs = solveAttrs(rep, name, ev.pop)
			solved++
		case burst.StageBounds:
			if solved == 0 && prev == from {
				s := ss.add(kind(0), cell, cell.Cell, prev, ev.at)
				s.Attrs = map[string]float64{"memo": 1}
			} else {
				ss.add("mapqn.bounds", cell, cell.Cell, prev, ev.at)
			}
		default:
			continue
		}
		prev = ev.at
	}
	if failed {
		s := ss.add(kind(solved), cell, cell.Cell, prev, to)
		s.Attrs = map[string]float64{"failed": 1}
	}
}

// solveAttrs reads the solve's footprint from the row: states, solver
// iterations, and whether the exact solve fell back to power iteration
// after abandoning Gauss-Seidel.
func solveAttrs(rep *burst.Report, name string, pop int) map[string]float64 {
	a := map[string]float64{"solved": 1, "population": float64(pop)}
	if rep == nil {
		return a
	}
	for _, pr := range rep.Results {
		if pr.Population != pop {
			continue
		}
		m := pr.MAP
		if name == "mapqn.decomp" {
			m = pr.Decomp
		}
		if m != nil {
			a["states"] = float64(m.States)
			a["iterations"] = float64(m.SolverIterations)
			if m.SolverMethod == "power" {
				a["power"] = 1
			}
		}
	}
	return a
}

func (b *batchSession) finish() (info, violations []string) {
	info = append(info, "rows digest "+b.digest[false])
	for _, f := range b.knownFailures {
		info = append(info, "known non-convergence: "+f)
	}
	return info, nil
}

func (b *batchSession) close() {}
