// Command perfbench is the repository's end-to-end benchmark: it runs one
// capacity-planning workload for a fixed time, checks the program's
// answers, and prints its metrics. See README.md in this directory.
//
//	bash perfbench/run.sh --workload grid-exact --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is a JSON object with the keys
// correct, attempted, failed and metrics. With --trace 0 the metrics are
// the end-to-end ones, measured untraced, with their timings scaled to a
// reference host speed by the host probe (probe.go); with --trace 1 they
// are the per-layer ones, from traced passes alternated with untraced
// ones, as measured.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strings"
	"time"
)

// session is one workload's inputs and program state after set-up.
type session interface {
	// pass runs the measured unit of work once: the program's work and
	// the bookkeeping needed to time it, nothing more, so that its wall
	// time and allocations are the program's. Traced passes also record
	// the hook events.
	pass(traced bool) (passResult, error)
	// check examines the outputs of the pass just run, outside its time
	// and allocation window: the correctness gate, failed operations, and
	// a traced pass's spans and per-layer metrics.
	check(r *passResult) error
	// finish runs the checks made once after the measured passes and
	// returns lines to print and correctness violations.
	finish() (info, violations []string)
	close()
}

// passResult is what one pass measured.
type passResult struct {
	wall       time.Duration
	latencies  []float64 // ms from submission to each result
	attempted  int
	failed     int
	alloc      uint64             // bytes allocated during the pass
	peakMem    float64            // p99 of the memory held from the OS during the pass
	violations []string           // correctness violations
	failures   []string           // failed operations
	layers     map[string]float64 // traced passes only
	spans      *spanSet           // traced batch passes only
}

// workload is one benchmark workload: open builds a session from the
// seed. Set-up is timed in setupBatches batches of setupReps back-to-back
// set-ups, each batch after a garbage collection, and setup_s is the
// median batch's time per set-up. The batch workloads' set-up takes well
// under a millisecond, too little to time one at a time, so their
// batches repeat it for about 50 ms.
//
// tailP is the percentile query_p99_ms takes within each pass. It is
// fixed per workload, so that it names the same quantity whatever the
// number of passes that fit in the run: the p99 of a service pass's 2000
// queries (20 samples beyond it), and the p90 of a batch pass's cells.
type workload struct {
	setupReps, setupBatches int
	tailP                   float64
	open                    func(seed int64, root string) (session, error)
}

var workloads = map[string]workload{
	"grid-exact": {100, 21, 90, func(seed int64, _ string) (session, error) {
		return newBatchSession([][]byte{gridExactSuite(seed)})
	}},
	"wide-decomp": {70, 21, 90, func(seed int64, _ string) (session, error) {
		return newBatchSession(wideDecompSuites(seed))
	}},
	"xval-sim": {500, 21, 90, func(seed int64, _ string) (session, error) {
		return newBatchSession([][]byte{xvalSuite(seed)})
	}},
	"service-whatif": {1, 5, 99, func(seed int64, root string) (session, error) {
		return newWhatifSession(seed, spoolDir(root))
	}},
}

func main() {
	os.Exit(run())
}

func run() int {
	name := flag.String("workload", "", "workload: grid-exact, wide-decomp, service-whatif or xval-sim")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 20, "measured time in seconds")
	trace := flag.Int("trace", 0, "1 to report per-layer metrics from traced passes")
	root := flag.String("root", ".", "checkout root; outputs go under its .bench_build/")
	probe := flag.Bool("probe", false, "run the host probe's kernel once and print its times (the run's child process)")
	flag.Parse()
	if *probe {
		runProbeKernel()
		return 0
	}
	wl, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *trace)
		return 2
	}
	res, err := measure(wl, *name, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(out))
	return 0
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func measure(wl workload, name string, seed int64, budget time.Duration, traced bool, root string) (*result, error) {
	var (
		setups []float64
		sess   session
	)
	probes, err := newHostProbe()
	if err != nil {
		return nil, err
	}
	if err := probes.take(); err != nil {
		return nil, err
	}
	closeSession := func() {
		if sess != nil {
			sess.close()
			sess = nil
		}
	}
	for b := 0; b < wl.setupBatches; b++ {
		closeSession()
		runtime.GC()
		start := time.Now()
		for i := 0; i < wl.setupReps; i++ {
			closeSession()
			s, err := wl.open(seed, root)
			if err != nil {
				return nil, fmt.Errorf("set-up: %w", err)
			}
			sess = s
		}
		setups = append(setups, time.Since(start).Seconds()/float64(wl.setupReps))
	}
	defer sess.close()

	// Passes run until another pass as long as the last would overrun
	// the budget; a traced run alternates untraced and traced passes.
	var plain, withTrace []passResult
	deadline := time.Now().Add(budget)
	for i := 0; ; i++ {
		tracedPass := traced && i%2 == 1
		if probes.due() {
			if err := probes.take(); err != nil {
				return nil, err
			}
		}
		var before, after runtime.MemStats
		// Every pass starts from the same heap: the previous pass's
		// garbage collected and returned to the OS.
		debug.FreeOSMemory()
		stopSampling := sampleMemory()
		runtime.ReadMemStats(&before)
		r, err := sess.pass(tracedPass)
		r.peakMem = stopSampling()
		runtime.ReadMemStats(&after)
		if err != nil {
			return nil, err
		}
		r.alloc = after.TotalAlloc - before.TotalAlloc
		if err := sess.check(&r); err != nil {
			return nil, err
		}
		if tracedPass {
			withTrace = append(withTrace, r)
		} else {
			plain = append(plain, r)
		}
		if i >= 1 && time.Until(deadline) < r.wall {
			break
		}
	}
	if err := probes.take(); err != nil {
		return nil, err
	}

	res := &result{Correct: true, Metrics: map[string]metric{}}
	var violations, failures []string
	all := append(append([]passResult(nil), plain...), withTrace...)
	for _, r := range all {
		res.Attempted += r.attempted
		res.Failed += r.failed
		violations = append(violations, r.violations...)
		failures = append(failures, r.failures...)
	}
	info, bad := sess.finish()
	violations = append(violations, bad...)
	res.Correct = len(violations) == 0

	fmt.Printf("workload %s, seed %d: %d untraced and %d traced passes\n", name, seed, len(plain), len(withTrace))
	fmt.Print("  pass wall_s:")
	for _, r := range all {
		fmt.Printf(" %.3f", r.wall.Seconds())
	}
	fmt.Println()
	fmt.Println("  " + probes.String())
	for _, line := range info {
		fmt.Println("  " + line)
	}
	printCapped("VIOLATION", violations)
	printCapped("FAILED", failures)
	verdict := "correct"
	if !res.Correct {
		verdict = "INCORRECT"
	}
	fmt.Printf("  verdict: %s (%d attempted, %d failed)\n", verdict, res.Attempted, res.Failed)

	if traced {
		layers, overhead := perLayer(plain, withTrace)
		layers["host.probe_ms"] = median(probes.times)
		for k, v := range layers {
			res.Metrics[k] = metric{v, layerUnit(k)}
		}
		fmt.Printf("  tracing overhead: %+.1f%% of wall_s (median traced pass vs median untraced pass)\n", 100*overhead)
		var batches []*spanSet
		for _, r := range withTrace {
			if r.spans != nil {
				batches = append(batches, r.spans)
			}
		}
		if len(batches) > 0 {
			path := filepath.Join(root, ".bench_build", fmt.Sprintf("spans-%s-%d.jsonl", name, seed))
			if err := writeSpans(path, batches); err != nil {
				return nil, fmt.Errorf("write spans: %w", err)
			}
			fmt.Println("  spans: " + path)
		}
	} else {
		res.Metrics = endToEnd(setups, plain, wl.tailP, probes.scale())
	}
	printMetrics(res.Metrics)
	return res, nil
}

// endToEnd reduces untraced passes to the end-to-end metrics. The tail is
// each pass's tailP-th percentile, median over the passes. Every timing
// is multiplied by scale, the host probe's factor to the reference speed.

func endToEnd(setups []float64, passes []passResult, tailP, scale float64) map[string]metric {
	var walls, allocs, mems, lat, tails []float64
	completed, wallSum := 0, 0.0
	for _, r := range passes {
		walls = append(walls, r.wall.Seconds())
		allocs = append(allocs, float64(r.alloc)/1e6)
		mems = append(mems, r.peakMem/1e6)
		lat = append(lat, r.latencies...)
		tails = append(tails, percentile(r.latencies, tailP))
		completed += r.attempted - r.failed
		wallSum += r.wall.Seconds()
	}
	fmt.Printf("  query_p99_ms is the median over %d passes of each pass's p%v\n", len(passes), tailP)
	fmt.Printf("  as measured: setup_s %.6g, wall_s %.6g, query_p50_ms %.6g, query_p99_ms %.6g, queries_per_s %.6g\n",
		median(setups), median(walls), median(lat), median(tails), float64(completed)/wallSum)
	return map[string]metric{
		"setup_s":       {median(setups) * scale, "s"},
		"wall_s":        {median(walls) * scale, "s"},
		"query_p50_ms":  {median(lat) * scale, "ms"},
		"query_p99_ms":  {median(tails) * scale, "ms"},
		"queries_per_s": {float64(completed) / (wallSum * scale), "1/s"},
		"alloc_mb":      {median(allocs), "MB"},
		"peak_rss_mb":   {median(mems), "MB"},
	}
}

// perLayer takes the median of every per-layer metric over the traced
// passes, and the tracing overhead: the median traced pass's wall time
// over the median untraced pass's, the first aside, minus one.
func perLayer(plain, traced []passResult) (map[string]float64, float64) {
	samples := map[string][]float64{}
	for _, name := range layerNames {
		samples[name] = nil
	}
	var tw, pw []float64
	for _, r := range traced {
		for k, v := range r.layers {
			samples[k] = append(samples[k], v)
		}
		tw = append(tw, r.wall.Seconds())
	}
	// The process's first pass also grows the heap from nothing; the
	// traced passes, which come after it, do not pay that.
	for i, r := range plain {
		if i > 0 || len(plain) == 1 {
			pw = append(pw, r.wall.Seconds())
		}
	}
	out := map[string]float64{}
	for k, vs := range samples {
		out[k] = median(vs)
	}
	overhead := median(tw)/median(pw) - 1
	out["trace.overhead_frac"] = overhead
	return out, overhead
}

// layerNames lists every per-layer metric, so each workload reports all
// of them (0 where a layer does no work).
var layerNames = []string{
	"mapqn.exact.busy_s", "mapqn.exact.solves", "mapqn.exact.states", "mapqn.exact.iterations",
	"mapqn.exact.power_frac", "mapqn.exact.peak_states",
	"mapqn.decomp.busy_s", "mapqn.decomp.solves", "mapqn.decomp.iterations", "mapqn.decomp.failed",
	"mapqn.bounds.busy_s",
	"core.suite.cell_busy_s", "core.suite.cell_wait_s", "core.suite.idle_worker_s", "core.suite.self_s",
	"core.suite.failed_frac",
	"core.memo.hits", "core.memo.misses", "core.memo.hit_ratio", "core.memo.evictions", "core.memo.bytes",
	"core.canonical.hash_busy_s",
	"markov.fit.calls", "markov.fit.busy_s",
	"service.submit_ms_p50", "service.queue_wait_ms_p50", "service.queue_wait_ms_p99",
	"service.run_ms_p50", "service.run_ms_p99", "service.follow_ms_p50",
	"service.reruns", "service.dedupes", "service.rejected", "service.empty_follows", "service.solver_share",
	"tpcw.sim.busy_s", "tpcw.sim.completions", "tpcw.sim.completions_per_s",
	"inference.characterize.busy_s", "inference.characterize.windows",
	"validate.busy_s", "validate.states", "validate.map_err_max",
	"trace.overhead_frac", "host.probe_ms",
}

// layerUnit derives a per-layer metric's unit from its name.
func layerUnit(name string) string {
	switch {
	case strings.HasSuffix(name, "_per_s"):
		return "1/s"
	case strings.HasSuffix(name, "_ms") || strings.HasSuffix(name, "_ms_p50") || strings.HasSuffix(name, "_ms_p99"):
		return "ms"
	case strings.HasSuffix(name, "_s"):
		return "s"
	case strings.HasSuffix(name, ".bytes"):
		return "B"
	case strings.HasSuffix(name, "_ratio") || strings.HasSuffix(name, "_frac") ||
		strings.HasSuffix(name, "_share") || strings.HasSuffix(name, "_err_max"):
		return "frac"
	}
	return "count"
}

func printCapped(tag string, lines []string) {
	for i, v := range lines {
		if i == 10 {
			fmt.Printf("  ... and %d more\n", len(lines)-10)
			return
		}
		fmt.Printf("  %s: %s\n", tag, v)
	}
}

func printMetrics(m map[string]metric) {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("  %-34s %14.6g %s\n", k, m[k].Value, m[k].Unit)
	}
}

// sampleMemory starts sampling, every millisecond, the memory the Go
// runtime holds from the OS: mapped and not released, which is the
// process's resident memory bar its binary. The returned stop function
// ends the sampling and returns the p99 of the samples, in bytes.
//
// The p99 and not the maximum, and a pass's and not the process's: on a
// workload that churns gigabytes of short-lived objects, the maximum is a
// transient of garbage not yet collected and moves by half between
// passes, while the level memory stays under 99% of the time repeats to
// a few percent. A pass of a second or more gives over 1000 samples, so
// at least 10 lie beyond the p99.
func sampleMemory() (stop func() float64) {
	samples := []metrics.Sample{
		{Name: "/memory/classes/total:bytes"},
		{Name: "/memory/classes/heap/released:bytes"},
	}
	read := func() float64 {
		metrics.Read(samples)
		return float64(samples[0].Value.Uint64() - samples[1].Value.Uint64())
	}
	// Allocated here, before the pass's allocation count starts.
	seen := make([]float64, 0, 1<<14)
	quit, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			seen = append(seen, read())
			select {
			case <-quit:
				return
			case <-tick.C:
			}
		}
	}()
	return func() float64 {
		close(quit)
		<-done
		return percentile(seen, 99)
	}
}
