package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	burst "repro"
	"repro/internal/core"
	"repro/internal/service"
)

// The service workload: a closed loop of whatifClients clients against
// the capacity-planning service, configured like
// `burstlabd -jobs 2 -memo-entries 128` and served by its own HTTP
// handler on a loopback listener in this process.
const (
	whatifClients     = 2
	whatifJobWorkers  = 2
	whatifMemoEntries = 128
	// whatifPassQueries is one measured pass: enough queries that the
	// pooled latencies of a run put well over ten samples beyond the p99.
	whatifPassQueries = 2000
	// maxFollows bounds how often a query follows a job that showed no
	// rows before it counts as failed.
	maxFollows = 10
)

type whatifSession struct {
	catalog [][]byte
	suites  []burst.Suite // the suite the service wraps each catalog scenario in
	stream  *queryStream
	mu      sync.Mutex // guards stream and last

	// last holds, per catalog entry, the cell rows most recently streamed
	// back, for the bit-identity check after the timed stream.
	last map[int][]byte

	spool  string
	svc    *service.Service
	srv    *http.Server
	base   string
	client *http.Client
	served chan struct{}

	// cold holds, per catalog entry, a traced cold local run of the same
	// query: its rows and its fit and solve times (filled on first use).
	cold map[int]*coldRun

	// What the pass just run left for check: its queries, whether it was
	// traced, and the service's memo counters before it.
	lastSamples []querySample
	lastTraced  bool
	memoBefore  burst.MemoStats
}

type coldRun struct {
	lines         []byte
	rows          []burst.SuiteRow
	fitS, solveS  float64
	solvePopCount int
}

// newWhatifSession generates the catalog, starts the service on a fresh
// spool under dir and warms its memo with one query per catalog entry.
func newWhatifSession(seed int64, dir string) (*whatifSession, error) {
	w := &whatifSession{
		catalog: whatifCatalog(seed),
		stream:  newQueryStream(seed),
		last:    map[int][]byte{},
		cold:    map[int]*coldRun{},
	}
	for _, body := range w.catalog {
		sc, err := burst.ParseScenario(body)
		if err != nil {
			return nil, err
		}
		w.suites = append(w.suites, burst.Suite{Name: sc.Name, Base: sc})
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	spool, err := os.MkdirTemp(dir, "spool-")
	if err != nil {
		return nil, err
	}
	w.spool = spool
	w.svc, err = service.New(service.Config{
		SpoolDir:    spool,
		JobWorkers:  whatifJobWorkers,
		MemoEntries: whatifMemoEntries,
	})
	if err != nil {
		os.RemoveAll(spool)
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		w.close()
		return nil, err
	}
	w.base = "http://" + ln.Addr().String()
	w.srv = &http.Server{Handler: w.svc.Handler()}
	w.served = make(chan struct{})
	go func() {
		defer close(w.served)
		w.srv.Serve(ln) //nolint:errcheck // returns ErrServerClosed on close
	}()
	w.client = &http.Client{Transport: &http.Transport{MaxConnsPerHost: whatifClients, MaxIdleConnsPerHost: whatifClients}}

	// Warm-up: every catalog entry once, over the same client loop.
	next := 0
	_, err = w.loop(len(w.catalog), false, func() query {
		q := query{entry: next}
		next++
		return q
	})
	if err != nil {
		w.close()
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return w, nil
}

// querySample is one query's outcome.
type querySample struct {
	entry        int
	code         int
	latencyMs    float64
	submitMs     float64
	failed       bool
	emptyFollows int
	status       *service.JobStatus // traced passes only
	submittedAt  time.Time
	done         time.Time
}

// loop runs n queries from next over the closed client loop and returns
// their samples.
func (w *whatifSession) loop(n int, traced bool, next func() query) ([]querySample, error) {
	var (
		mu      sync.Mutex
		issued  int
		samples []querySample
		firstEr error
		wg      sync.WaitGroup
	)
	for c := 0; c < whatifClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				if issued == n || firstEr != nil {
					mu.Unlock()
					return
				}
				issued++
				q := next()
				mu.Unlock()
				s, err := w.query(q, traced)
				mu.Lock()
				if err != nil && firstEr == nil {
					firstEr = err
				}
				samples = append(samples, s)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return samples, firstEr
}

var footerMark = []byte(`"status":"footer"`)

// query POSTs one catalog scenario (with ?rerun=1 unless it is a plain
// resubmit) and follows its rows until the last one arrives.
func (w *whatifSession) query(q query, traced bool) (querySample, error) {
	s := querySample{entry: q.entry, submittedAt: time.Now()}
	url := w.base + "/api/v1/jobs"
	if !q.plain {
		url += "?rerun=1"
	}
	start := time.Now()
	resp, err := w.client.Post(url, "application/json", bytes.NewReader(w.catalog[q.entry]))
	if err != nil {
		return s, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return s, err
	}
	s.code = resp.StatusCode
	s.submitMs = msSince(start)
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
		s.failed = true
		s.latencyMs = msSince(start)
		return s, nil
	}
	var st service.JobStatus
	if err := json.Unmarshal(body, &st); err != nil {
		return s, fmt.Errorf("submit response: %w", err)
	}
	// A rerun by the other client removes the finished spool before it
	// marks the job queued again; a follower arriving in between sees a
	// finished job with no rows. Follow again, and count it.
	rows, err := w.get("/api/v1/jobs/" + st.ID + "/rows?follow=1")
	for try := 1; err == nil && len(rows) == 0 && try < maxFollows; try++ {
		s.emptyFollows++
		rows, err = w.get("/api/v1/jobs/" + st.ID + "/rows?follow=1")
	}
	s.latencyMs = msSince(start)
	s.done = time.Now()
	if err != nil {
		return s, err
	}
	var cells []byte
	for _, line := range bytes.SplitAfter(rows, []byte{'\n'}) {
		if len(line) == 0 || bytes.Contains(line, footerMark) {
			continue
		}
		cells = append(cells, line...)
	}
	if len(cells) == 0 || bytes.Contains(cells, []byte(`"status":"failed"`)) {
		s.failed = true
	}
	w.mu.Lock()
	w.last[q.entry] = cells
	w.mu.Unlock()
	if traced {
		data, err := w.get("/api/v1/jobs/" + st.ID)
		if err != nil {
			return s, err
		}
		var fin service.JobStatus
		if err := json.Unmarshal(data, &fin); err != nil {
			return s, fmt.Errorf("job status: %w", err)
		}
		s.status = &fin
	}
	return s, nil
}

func (w *whatifSession) get(path string) ([]byte, error) {
	resp, err := w.client.Get(w.base + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return data, nil
}

func (w *whatifSession) pass(traced bool) (passResult, error) {
	w.memoBefore = w.svc.Metrics().Memo
	start := time.Now()
	samples, err := w.loop(whatifPassQueries, traced, func() query {
		w.mu.Lock()
		defer w.mu.Unlock()
		return w.stream.next()
	})
	res := passResult{wall: time.Since(start)}
	w.lastSamples, w.lastTraced = samples, traced
	return res, err
}

func (w *whatifSession) check(res *passResult) error {
	// Dropped here, so that the next pass does not carry these samples.
	samples := w.lastSamples
	w.lastSamples = nil
	for _, s := range samples {
		res.attempted++
		res.latencies = append(res.latencies, s.latencyMs)
		if s.failed {
			res.failed++
			res.failures = append(res.failures, fmt.Sprintf("query whatif-%02d: HTTP %d, or no rows or a failed row", s.entry, s.code))
		}
	}
	if !w.lastTraced {
		return nil
	}
	l, err := w.layers(samples, w.memoBefore, w.svc.Metrics().Memo)
	res.layers = l
	return err
}

// layers derives the service workload's per-layer metrics from the
// client-side spans (submit, follow), the jobs' own lifecycle stamps,
// the service's memo counters, and direct timing of the same inputs.
func (w *whatifSession) layers(samples []querySample, before, after burst.MemoStats) (map[string]float64, error) {
	var submit, follow, wait, run []float64
	reruns, dedupes, rejected, empty := 0, 0, 0, 0
	totalMs, solveS, fitS, solves := 0.0, 0.0, 0.0, 0
	for _, s := range samples {
		totalMs += s.latencyMs
		empty += s.emptyFollows
		switch s.code {
		case http.StatusAccepted:
			reruns++
		case http.StatusOK:
			dedupes++
		case http.StatusServiceUnavailable:
			rejected++
		}
		submit = append(submit, s.submitMs)
		follow = append(follow, s.latencyMs-s.submitMs)
		st := s.status
		// Only a run this query caused, and no later rerun of the same
		// job, may be read off the job's stamps.
		if s.code != http.StatusAccepted || st == nil || st.StartedAt == nil || st.FinishedAt == nil ||
			st.SubmittedAt.Before(s.submittedAt) || st.FinishedAt.After(s.done) {
			continue
		}
		wait = append(wait, float64(st.StartedAt.Sub(st.SubmittedAt).Nanoseconds())/1e6)
		run = append(run, float64(st.FinishedAt.Sub(*st.StartedAt).Nanoseconds())/1e6)
		cold, err := w.coldRun(s.entry)
		if err != nil {
			return nil, err
		}
		if m := st.Memo; m != nil {
			if m.SolveMisses > 0 {
				solveS += cold.solveS
				solves += cold.solvePopCount
			}
			if f := m.FitHits + m.FitMisses; f > 0 {
				fitS += cold.fitS * float64(m.FitMisses) / float64(f)
			}
		}
	}
	_, waitTail := tailPercentile(wait)
	_, runTail := tailPercentile(run)
	memo := burst.MemoStats{
		CharHits: after.CharHits - before.CharHits, CharMisses: after.CharMisses - before.CharMisses,
		FitHits: after.FitHits - before.FitHits, FitMisses: after.FitMisses - before.FitMisses,
		SolveHits: after.SolveHits - before.SolveHits, SolveMisses: after.SolveMisses - before.SolveMisses,
		Evictions: after.Evictions - before.Evictions, Entries: after.Entries, Bytes: after.Bytes,
	}
	l := map[string]float64{
		"service.submit_ms_p50":     median(submit),
		"service.queue_wait_ms_p50": median(wait),
		"service.queue_wait_ms_p99": waitTail,
		"service.run_ms_p50":        median(run),
		"service.run_ms_p99":        runTail,
		"service.follow_ms_p50":     median(follow),
		"service.reruns":            float64(reruns),
		"service.dedupes":           float64(dedupes),
		"service.rejected":          float64(rejected),
		"service.empty_follows":     float64(empty),
		"service.solver_share":      ratio(solveS*1e3, totalMs),
		"mapqn.exact.busy_s":        solveS,
		"mapqn.exact.solves":        float64(solves),
		"markov.fit.busy_s":         fitS,
		"markov.fit.calls":          float64(memo.FitMisses),
	}
	memoLayers(memo, l)
	t := time.Now()
	for _, s := range samples {
		core.HashJSON(w.suites[s.entry]) //nolint:errcheck // timed only; the service hashed this input on submit
	}
	l["core.canonical.hash_busy_s"] = time.Since(t).Seconds()
	return l, nil
}

// coldRun runs one catalog query through a cold local burst.RunSuite,
// traced, and caches its rows and stage times.
func (w *whatifSession) coldRun(entry int) (*coldRun, error) {
	if c := w.cold[entry]; c != nil {
		return c, nil
	}
	suite := w.suites[entry]
	b := &batchSession{suites: []burst.Suite{suite}, cells: map[string]burst.SuiteCell{}}
	if err := b.expand(suite); err != nil {
		return nil, err
	}
	log := newHookLog()
	traceSuite(&suite, log)
	var buf bytes.Buffer
	rep, err := burst.RunSuite(context.Background(), suite, burst.NewJSONLSink(&buf))
	if err != nil {
		return nil, err
	}
	var lines []byte
	for _, line := range bytes.SplitAfter(buf.Bytes(), []byte{'\n'}) {
		if len(line) > 0 && !bytes.Contains(line, footerMark) {
			lines = append(lines, line...)
		}
	}
	_, l := b.layers(log, rep.Rows, nil, rep.Memo)
	c := &coldRun{lines: lines, rows: rep.Rows, fitS: l["markov.fit.busy_s"], solveS: l["mapqn.exact.busy_s"], solvePopCount: int(l["mapqn.exact.solves"])}
	w.cold[entry] = c
	return c, nil
}

// finish checks, once after the timed stream, that every distinct
// query's streamed rows are bit-identical to a cold local run of the
// same query and obey the queueing laws, and returns the digest line.
func (w *whatifSession) finish() ([]string, []string) {
	var bad []string
	entries := make([]int, 0, len(w.last))
	for e := range w.last {
		entries = append(entries, e)
	}
	sort.Ints(entries)
	var all []burst.SuiteRow
	for _, e := range entries {
		cold, err := w.coldRun(e)
		if err != nil {
			bad = append(bad, fmt.Sprintf("whatif-%02d: cold run: %v", e, err))
			continue
		}
		if !bytes.Equal(cold.lines, w.last[e]) {
			bad = append(bad, fmt.Sprintf("whatif-%02d: streamed rows differ from a cold local RunSuite", e))
		}
		for _, row := range cold.rows {
			if row.Report == nil {
				bad = append(bad, fmt.Sprintf("whatif-%02d: cell %s did not finish", e, row.Name))
				continue
			}
			bad = append(bad, checkReport(row.Report)...)
		}
		all = append(all, cold.rows...)
	}
	digest, err := rowsDigest(all)
	if err != nil {
		bad = append(bad, err.Error())
	}
	return []string{fmt.Sprintf("rows digest %s over %d distinct queries", digest, len(entries))}, bad
}

func (w *whatifSession) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var errs []error
	if w.srv != nil {
		errs = append(errs, w.srv.Shutdown(ctx))
		<-w.served
	}
	if w.client != nil {
		w.client.CloseIdleConnections()
	}
	if w.svc != nil {
		errs = append(errs, w.svc.Close(ctx))
	}
	errs = append(errs, os.RemoveAll(w.spool))
	if err := errors.Join(errs...); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: service shutdown:", err)
	}
}

// spoolDir is where the service sessions keep their spools.
func spoolDir(root string) string { return filepath.Join(root, ".bench_build", "spools") }
