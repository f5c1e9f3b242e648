package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	burst "repro"
	"repro/internal/core"
)

// Config parameterizes a Service.
type Config struct {
	// SpoolDir is the root of the per-job spool (required). Each job
	// gets SpoolDir/<id>/ with suite.json, rows.jsonl and — once
	// terminal — status.json. The spool is the service's only state:
	// restarting against the same directory recovers finished jobs and
	// resumes interrupted ones by cell content hash.
	SpoolDir string
	// JobWorkers caps concurrently executing jobs (default 2). Cell
	// concurrency within a job is the suite's own Workers setting.
	JobWorkers int
	// QueueDepth bounds admitted-but-not-started jobs (default 16).
	// Submissions beyond it are rejected with ErrQueueFull — the burst
	// buffer in front of the slower solve workers.
	QueueDepth int
	// MemoEntries / MemoBytes bound the shared process-lifetime stage
	// memo (defaults 4096 entries / 256 MiB; either 0 keeps the
	// default, negative disables that bound).
	MemoEntries int
	MemoBytes   int64
	// Logf, when non-nil, receives operational log lines.
	Logf func(format string, args ...any)
}

// Service errors surfaced to submitters.
var (
	// ErrDraining rejects submissions while the service shuts down.
	ErrDraining = errors.New("service: draining, not accepting jobs")
	// ErrQueueFull rejects submissions when the admission queue is full.
	ErrQueueFull = errors.New("service: job queue full")
	// ErrNotFound marks an unknown job ID.
	ErrNotFound = errors.New("service: no such job")
)

// Service is the capacity-planning daemon core: a content-addressed job
// registry over a disk spool, a bounded admission queue feeding a small
// pool of job workers, and one shared bounded Memo whose views give
// every job its own hit/miss accounting.
type Service struct {
	cfg  Config
	memo *core.Memo

	runCtx     context.Context
	cancelRuns context.CancelFunc
	stop       chan struct{}
	wg         sync.WaitGroup

	mu       sync.Mutex
	jobs     map[string]*job
	order    []string // submission order, for listing
	queue    chan *job
	draining bool
}

// New creates the spool directory, recovers jobs left in it by a
// previous process (terminal jobs re-register with their persisted
// status; interrupted or never-started jobs re-enter the queue and
// resume by cell content hash), and starts the worker pool.
func New(cfg Config) (*Service, error) {
	if cfg.SpoolDir == "" {
		return nil, errors.New("service: SpoolDir is required")
	}
	if cfg.JobWorkers <= 0 {
		cfg.JobWorkers = 2
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 16
	}
	if cfg.MemoEntries == 0 {
		cfg.MemoEntries = 4096
	}
	if cfg.MemoBytes == 0 {
		cfg.MemoBytes = 256 << 20
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	if err := os.MkdirAll(cfg.SpoolDir, 0o755); err != nil {
		return nil, fmt.Errorf("service: create spool: %w", err)
	}

	runCtx, cancel := context.WithCancel(context.Background())
	s := &Service{
		cfg:        cfg,
		memo:       core.NewBoundedMemo(cfg.MemoEntries, cfg.MemoBytes),
		runCtx:     runCtx,
		cancelRuns: cancel,
		stop:       make(chan struct{}),
		jobs:       map[string]*job{},
	}
	pending, err := s.recover()
	if err != nil {
		cancel()
		return nil, err
	}
	// The queue must hold every recovered job plus the configured
	// admission headroom, or startup itself would overflow it.
	s.queue = make(chan *job, cfg.QueueDepth+len(pending))
	for _, j := range pending {
		s.queue <- j
	}
	for i := 0; i < cfg.JobWorkers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s, nil
}

// recover scans the spool for jobs from a previous process. Returns
// the jobs that still need to run, in directory (hash) order.
func (s *Service) recover() ([]*job, error) {
	entries, err := os.ReadDir(s.cfg.SpoolDir)
	if err != nil {
		return nil, fmt.Errorf("service: scan spool: %w", err)
	}
	var pending []*job
	for _, ent := range entries {
		if !ent.IsDir() {
			continue
		}
		dir := filepath.Join(s.cfg.SpoolDir, ent.Name())
		suite, err := core.LoadSuite(filepath.Join(dir, "suite.json"))
		if err != nil {
			s.cfg.Logf("spool %s: unreadable suite, skipping: %v", ent.Name(), err)
			continue
		}
		id, err := core.HashJSON(suite)
		if err != nil || id != ent.Name() {
			s.cfg.Logf("spool %s: suite hash mismatch, skipping", ent.Name())
			continue
		}
		j := newJob(id, suite, dir, filepath.Join(dir, "rows.jsonl"), suiteName(suite))
		if cells, err := suite.Expand(); err == nil {
			j.status.Cells = len(cells)
		}
		if st, err := readStatusFile(dir); err == nil && st.State.Terminal() {
			j.status = st
		} else {
			pending = append(pending, j)
			s.cfg.Logf("recovered job %s (%s): resuming", shortID(id), j.status.Name)
		}
		s.jobs[id] = j
		s.order = append(s.order, id)
	}
	return pending, nil
}

// Submit admits a Scenario or Suite (JSON bytes). A bare Scenario is
// wrapped as a single-cell Suite. The job ID is the hash of the
// canonical suite JSON, so identical submissions dedupe: a queued or
// running job is returned as-is, and a terminal job is returned without
// re-running unless rerun is set — then its spooled rows are discarded
// and it re-executes (served largely from the shared memo when the
// cache is warm). Returns the job's status and whether this call
// started (or restarted) work.
func (s *Service) Submit(data []byte, rerun bool) (JobStatus, bool, error) {
	suite, err := parseSubmission(data)
	if err != nil {
		return JobStatus{}, false, err
	}
	cells, err := suite.Expand()
	if err != nil {
		return JobStatus{}, false, err
	}
	id, err := core.HashJSON(suite)
	if err != nil {
		return JobStatus{}, false, fmt.Errorf("service: hash suite: %w", err)
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return JobStatus{}, false, ErrDraining
	}
	if j, ok := s.jobs[id]; ok {
		st := j.Status()
		if !st.State.Terminal() || !rerun {
			return st, false, nil
		}
		// Re-run: discard the completed spool so cells recompute (the
		// warm memo, not the spool, serves the repeats), reset counters
		// and re-queue under the same content address.
		if len(s.queue) == cap(s.queue) {
			return JobStatus{}, false, ErrQueueFull
		}
		if err := j.requeue(); err != nil {
			return JobStatus{}, false, err
		}
		s.queue <- j
		return j.Status(), true, nil
	}

	if len(s.queue) == cap(s.queue) {
		return JobStatus{}, false, ErrQueueFull
	}
	dir := filepath.Join(s.cfg.SpoolDir, id)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return JobStatus{}, false, fmt.Errorf("service: create job spool: %w", err)
	}
	spec, err := suite.JSON()
	if err != nil {
		return JobStatus{}, false, err
	}
	if err := os.WriteFile(filepath.Join(dir, "suite.json"), spec, 0o644); err != nil {
		return JobStatus{}, false, fmt.Errorf("service: write suite spec: %w", err)
	}
	j := newJob(id, suite, dir, filepath.Join(dir, "rows.jsonl"), suiteName(suite))
	j.status.Cells = len(cells)
	s.jobs[id] = j
	s.order = append(s.order, id)
	s.queue <- j
	s.cfg.Logf("job %s (%s): queued, %d cells", shortID(id), j.status.Name, len(cells))
	return j.Status(), true, nil
}

// Job returns a job's status snapshot.
func (s *Service) Job(id string) (JobStatus, error) {
	j, err := s.lookup(id)
	if err != nil {
		return JobStatus{}, err
	}
	return j.Status(), nil
}

// Jobs lists every known job's status in submission order.
func (s *Service) Jobs() []JobStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]JobStatus, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.jobs[id].Status())
	}
	return out
}

func (s *Service) lookup(id string) (*job, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return nil, ErrNotFound
	}
	return j, nil
}

// Metrics is a point-in-time operational snapshot.
type Metrics struct {
	// Jobs counts known jobs per lifecycle state.
	Jobs map[JobState]int `json:"jobs"`
	// Queued is the current admission-queue depth; QueueCap its bound.
	Queued   int `json:"queued"`
	QueueCap int `json:"queue_cap"`
	// Draining reports whether shutdown has begun.
	Draining bool `json:"draining"`
	// Memo holds the shared cache's process-lifetime counters and
	// resident footprint, summed across every job.
	Memo core.MemoStats `json:"memo"`
}

// Metrics snapshots the service for the /metrics endpoint.
func (s *Service) Metrics() Metrics {
	s.mu.Lock()
	m := Metrics{
		Jobs:     map[JobState]int{},
		Queued:   len(s.queue),
		QueueCap: cap(s.queue),
		Draining: s.draining,
	}
	for _, j := range s.jobs {
		m.Jobs[j.Status().State]++
	}
	s.mu.Unlock()
	m.Memo = s.memo.CacheStats()
	return m
}

// Draining reports whether shutdown has begun (health checks).
func (s *Service) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Close drains the service: submissions are rejected, queued jobs stay
// spooled for the next start, and running jobs get until ctx expires to
// finish. When ctx expires first, in-flight jobs are canceled — every
// completed cell is already flushed to the spool, so a later restart
// resumes exactly after the last finished cell. Close returns once all
// workers have exited; it is safe to call once.
func (s *Service) Close(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	close(s.stop)

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		s.cfg.Logf("drain deadline reached, checkpointing in-flight jobs")
		s.cancelRuns()
		<-done
	}
	s.cancelRuns()
	return nil
}

func (s *Service) worker() {
	defer s.wg.Done()
	for {
		select {
		case <-s.stop:
			return
		case j, ok := <-s.queue:
			if !ok {
				return
			}
			// A drain between enqueue and dequeue leaves the job
			// spooled but unstarted; the next process picks it up.
			if s.Draining() {
				continue
			}
			s.runJob(j)
		}
	}
}

// runJob executes one job: resume state from the spool, a fresh view of
// the shared memo for per-job counters, rows appended to the spool and
// fanned out to followers, and a terminal status file on completion.
func (s *Service) runJob(j *job) {
	started := time.Now().UTC()
	j.update(func(st *JobStatus) {
		st.State = JobRunning
		st.StartedAt = &started
		st.FinishedAt = nil
		st.Done, st.Skipped, st.Failed = 0, 0, 0
		st.Error = ""
		st.Runs++
	})

	resume, err := core.ReadJSONLResume(j.rows)
	if err != nil {
		s.finishJob(j, nil, fmt.Errorf("service: read resume state: %w", err))
		return
	}
	if resume.Malformed > 0 {
		s.cfg.Logf("job %s: %d torn spool lines ignored, their cells re-run", shortID(j.id), resume.Malformed)
	}
	sink, err := openSpoolSink(j)
	if err != nil {
		s.finishJob(j, nil, err)
		return
	}

	suite := j.suite
	suite.Skip = resume.Done
	suite.OnProgress = func(ev core.SuiteEvent) {
		switch ev.Stage {
		case core.SuiteStageDone, core.SuiteStageSkip, core.SuiteStageFail:
			j.update(func(st *JobStatus) {
				st.Done = ev.Done
				if ev.Stage == core.SuiteStageSkip {
					st.Skipped++
				}
				if ev.Stage == core.SuiteStageFail {
					st.Failed++
				}
			})
		}
	}

	view := s.memo.View()
	rep, err := burst.RunSuiteWithMemo(s.runCtx, suite, view, sink)
	if err != nil {
		if core.IsCancellation(err) {
			stats := view.Stats()
			j.update(func(st *JobStatus) {
				st.State = JobInterrupted
				st.Memo = &stats
			})
			j.closeSubs()
			s.cfg.Logf("job %s: checkpointed after %d cells", shortID(j.id), j.Status().Done)
			return
		}
		s.finishJob(j, view, err)
		return
	}

	finished := time.Now().UTC()
	stats := rep.Memo
	j.update(func(st *JobStatus) {
		st.State = JobDone
		st.Done = rep.Cells
		st.Skipped = rep.Skipped
		st.Failed = rep.Failed
		st.Memo = &stats
		st.FinishedAt = &finished
	})
	s.persistStatus(j)
	j.closeSubs()
	s.cfg.Logf("job %s: done (%d cells, %d skipped, %d failed, %d memo hits / %d misses)",
		shortID(j.id), rep.Cells, rep.Skipped, rep.Failed, stats.Hits(), stats.Misses())
}

// finishJob records a failed run terminally.
func (s *Service) finishJob(j *job, view *core.Memo, err error) {
	finished := time.Now().UTC()
	stats := view.Stats()
	j.update(func(st *JobStatus) {
		st.State = JobFailed
		st.Error = err.Error()
		if view != nil {
			st.Memo = &stats
		}
		st.FinishedAt = &finished
	})
	s.persistStatus(j)
	j.closeSubs()
	s.cfg.Logf("job %s: failed: %v", shortID(j.id), err)
}

// persistStatus writes the job's terminal status file atomically
// (temp + rename), so recovery never sees a torn status.
func (s *Service) persistStatus(j *job) {
	data, err := core.CanonicalJSON(j.Status())
	if err != nil {
		s.cfg.Logf("job %s: encode status: %v", shortID(j.id), err)
		return
	}
	tmp := filepath.Join(j.dir, ".status.json.tmp")
	if err := os.WriteFile(tmp, append(data, '\n'), 0o644); err != nil {
		s.cfg.Logf("job %s: write status: %v", shortID(j.id), err)
		return
	}
	if err := os.Rename(tmp, filepath.Join(j.dir, "status.json")); err != nil {
		s.cfg.Logf("job %s: write status: %v", shortID(j.id), err)
	}
}

func readStatusFile(dir string) (JobStatus, error) {
	data, err := os.ReadFile(filepath.Join(dir, "status.json"))
	if err != nil {
		return JobStatus{}, err
	}
	var st JobStatus
	if err := json.Unmarshal(data, &st); err != nil {
		return JobStatus{}, fmt.Errorf("service: parse status: %w", err)
	}
	return st, nil
}

// parseSubmission decodes a submission body as a Suite, falling back to
// a bare Scenario wrapped as a single-cell suite.
func parseSubmission(data []byte) (core.Suite, error) {
	suite, serr := core.ParseSuite(data)
	if serr == nil {
		return suite, nil
	}
	sc, scerr := core.ParseScenario(data)
	if scerr == nil {
		return core.Suite{Name: sc.Name, Base: sc}, nil
	}
	return core.Suite{}, fmt.Errorf("service: body is neither a suite (%v) nor a scenario (%v)", serr, scerr)
}

func suiteName(s core.Suite) string {
	if s.Name != "" {
		return s.Name
	}
	return s.Base.Name
}

func shortID(id string) string {
	if len(id) > 12 {
		return id[:12]
	}
	return id
}
