// Package service implements burstlabd's capacity-planning service: an
// HTTP daemon that queues POSTed Scenario/Suite JSON as content-addressed
// jobs, executes them on a bounded worker pool through the suite engine,
// and shares one process-lifetime bounded stage memo across all jobs so
// repeat what-if queries are served from cache. Per-job rows spool to
// disk as JSON Lines, which makes jobs stream-followable, reconnectable,
// and resumable by cell content hash after a crash or restart.
package service

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/core"
)

// JobState is the lifecycle state of a submitted job.
type JobState string

const (
	// JobQueued marks a job admitted but not yet started (including
	// jobs recovered from the spool at startup).
	JobQueued JobState = "queued"
	// JobRunning marks a job executing on a worker.
	JobRunning JobState = "running"
	// JobDone marks a completed job; Failed counts cells that errored
	// under the "continue" policy.
	JobDone JobState = "done"
	// JobFailed marks a job whose run returned an error (fail-fast cell
	// failure, invalid suite, spool I/O).
	JobFailed JobState = "failed"
	// JobInterrupted marks a job checkpointed by a drain: its finished
	// rows are flushed to the spool and a restarted daemon resumes the
	// rest. Never persisted — an interrupted job has no terminal status
	// file, which is exactly what recovery looks for.
	JobInterrupted JobState = "interrupted"
)

// Terminal reports whether the state is a persisted end state.
func (s JobState) Terminal() bool { return s == JobDone || s == JobFailed }

// JobStatus is a job's externally visible snapshot, served on the
// status endpoints and persisted as the spool's terminal status file.
type JobStatus struct {
	// ID is the job's content address: the hash of the canonical suite
	// JSON. Resubmitting the same suite yields the same ID.
	ID string `json:"id"`
	// Name is the suite (or wrapped scenario) label.
	Name string `json:"name,omitempty"`
	// State is the lifecycle state.
	State JobState `json:"state"`
	// Cells is the expanded cell count.
	Cells int `json:"cells,omitempty"`
	// Done counts finished cells of the current (or last) run,
	// including resumed-skip cells.
	Done int `json:"done,omitempty"`
	// Skipped counts cells served from the spool by resume.
	Skipped int `json:"skipped,omitempty"`
	// Failed counts cells recorded as failed under the continue policy.
	Failed int `json:"failed,omitempty"`
	// Runs counts execution attempts, so a resumed job is visible.
	Runs int `json:"runs,omitempty"`
	// Error carries the run error of a failed job.
	Error string `json:"error,omitempty"`
	// Memo holds the job's stage-cache counters: hits/misses/evictions
	// observed by this job's view of the shared process-lifetime memo.
	Memo *core.MemoStats `json:"memo,omitempty"`
	// SubmittedAt / StartedAt / FinishedAt stamp the lifecycle.
	SubmittedAt time.Time  `json:"submitted_at,omitempty"`
	StartedAt   *time.Time `json:"started_at,omitempty"`
	FinishedAt  *time.Time `json:"finished_at,omitempty"`
}

// event is one notification published to a job's subscribers.
type event struct {
	kind string // "row" or "status"
	data []byte // the row or status JSON, one line; a row ends in '\n', a status does not
}

// job is the server-side state of one submitted suite.
type job struct {
	id    string
	suite core.Suite
	dir   string // spool directory
	rows  string // rows.jsonl path
	// expandErr is why a suite recovered from the spool no longer
	// expands; Submit rejects the suite with it.
	expandErr error

	mu     sync.Mutex
	status JobStatus
	subs   map[int]chan event
	nextID int
}

const subBuffer = 256

func newJob(id string, suite core.Suite, dir, rowsPath string, name string) *job {
	return &job{
		id:    id,
		suite: suite,
		dir:   dir,
		rows:  rowsPath,
		status: JobStatus{
			ID:          id,
			Name:        name,
			State:       JobQueued,
			SubmittedAt: time.Now().UTC(),
		},
		subs: map[int]chan event{},
	}
}

// Status returns a copy of the job's current snapshot.
func (j *job) Status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.status
}

// update mutates the status under the job lock and publishes the new
// snapshot to subscribers.
func (j *job) update(fn func(*JobStatus)) {
	j.mu.Lock()
	fn(&j.status)
	data, err := json.Marshal(j.status)
	j.mu.Unlock()
	if err == nil {
		j.publish(event{kind: "status", data: data})
	}
}

// requeue discards a finished job's spooled rows and status file and
// marks it queued with fresh counters, as one step under the job lock:
// a follower subscribing meanwhile sees either the finished job with its
// rows or the queued job — never a finished job with an empty spool.
func (j *job) requeue() error {
	var err error
	j.update(func(st *JobStatus) {
		for _, path := range []string{j.rows, filepath.Join(j.dir, "status.json")} {
			if rerr := os.Remove(path); rerr != nil && !os.IsNotExist(rerr) {
				err = fmt.Errorf("service: reset spool: %w", rerr)
				return
			}
		}
		st.State = JobQueued
		st.Done, st.Skipped, st.Failed = 0, 0, 0
		st.Error = ""
		st.Memo = nil
		st.StartedAt, st.FinishedAt = nil, nil
		st.SubmittedAt = time.Now().UTC()
	})
	return err
}

// publish fans an event out to every subscriber. A subscriber whose
// buffer is full is dropped (channel closed): a follower that cannot
// keep up re-fetches the spool file rather than stalling the suite.
func (j *job) publish(ev event) {
	j.mu.Lock()
	defer j.mu.Unlock()
	for id, ch := range j.subs {
		select {
		case ch <- ev:
		default:
			close(ch)
			delete(j.subs, id)
		}
	}
}

// subscribe registers a follower and returns the bytes of every row
// already spooled, the event channel, a cancel function, and whether
// the job is already terminal. The snapshot and the registration happen
// under one lock acquisition with respect to row writes, so the caller
// sees every row exactly once: first the file prefix, then the channel.
func (j *job) subscribe() (spooled []byte, ch chan event, cancel func(), terminal bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	data, err := os.ReadFile(j.rows)
	if err != nil {
		data = nil
	}
	if j.status.State.Terminal() {
		return data, nil, func() {}, true
	}
	id := j.nextID
	j.nextID++
	ch = make(chan event, subBuffer)
	j.subs[id] = ch
	cancel = func() {
		j.mu.Lock()
		defer j.mu.Unlock()
		if c, ok := j.subs[id]; ok {
			close(c)
			delete(j.subs, id)
		}
	}
	return data, ch, cancel, false
}

// closeSubs closes every subscriber channel (job reached a rest state).
func (j *job) closeSubs() {
	j.mu.Lock()
	defer j.mu.Unlock()
	for id, ch := range j.subs {
		close(ch)
		delete(j.subs, id)
	}
}

// spoolSink streams suite rows to the job's rows.jsonl and to live
// subscribers. The file write and the publish happen under the job
// lock, so a subscriber's initial file snapshot composes exactly with
// the events that follow. Each line is flushed by the unbuffered
// os.File write — a killed daemon loses at most the line being written,
// which the append-heal and resume readers tolerate.
type spoolSink struct {
	j *job
	f *os.File
}

// openSpoolSink opens the job's rows file for appending, healing a torn
// trailing line left by a previous kill so the next row starts clean.
func openSpoolSink(j *job) (*spoolSink, error) {
	f, err := os.OpenFile(j.rows, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("service: open spool: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("service: open spool: %w", err)
	}
	if st.Size() > 0 {
		last := make([]byte, 1)
		if _, err := f.ReadAt(last, st.Size()-1); err != nil {
			f.Close()
			return nil, fmt.Errorf("service: open spool: %w", err)
		}
		if last[0] != '\n' {
			if _, err := f.Write([]byte("\n")); err != nil {
				f.Close()
				return nil, fmt.Errorf("service: open spool: %w", err)
			}
		}
	}
	return &spoolSink{j: j, f: f}, nil
}

// Write implements core.ReportSink. Subscribers receive the very line
// written to the file, newline included, and must not modify it: every
// subscriber shares its backing array.
func (s *spoolSink) Write(row core.SuiteRow) error {
	data, err := json.Marshal(row)
	if err != nil {
		return fmt.Errorf("service: encode row: %w", err)
	}
	line := append(data, '\n')

	s.j.mu.Lock()
	_, werr := s.f.Write(line)
	if werr == nil {
		for id, ch := range s.j.subs {
			select {
			case ch <- event{kind: "row", data: line}:
			default:
				close(ch)
				delete(s.j.subs, id)
			}
		}
	}
	s.j.mu.Unlock()
	if werr != nil {
		return fmt.Errorf("service: write row: %w", werr)
	}
	return nil
}

// Close implements core.ReportSink.
func (s *spoolSink) Close() error { return s.f.Close() }
