package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
)

// maxBodyBytes bounds submission bodies; suite specs are small.
const maxBodyBytes = 8 << 20

// Handler returns the service's HTTP API:
//
//	POST /api/v1/jobs            submit a Suite or Scenario (JSON body);
//	                             ?rerun=1 re-executes a finished job
//	GET  /api/v1/jobs            list job statuses
//	GET  /api/v1/jobs/{id}       one job's status
//	GET  /api/v1/jobs/{id}/rows  the job's result rows as JSON Lines;
//	                             ?follow=1 streams until the job ends
//	GET  /api/v1/jobs/{id}/events  SSE stream of status and row events
//	GET  /metrics                text metrics (jobs, queue, memo cache)
//	GET  /healthz                200 while serving, 503 while draining
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /api/v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /api/v1/jobs", s.handleList)
	mux.HandleFunc("GET /api/v1/jobs/{id}", s.handleStatus)
	mux.HandleFunc("GET /api/v1/jobs/{id}/rows", s.handleRows)
	mux.HandleFunc("GET /api/v1/jobs/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	return mux
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // client gone; nothing to do
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}

func (s *Service) handleSubmit(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(io.LimitReader(r.Body, maxBodyBytes+1))
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("read body: %w", err))
		return
	}
	if len(body) > maxBodyBytes {
		writeError(w, http.StatusRequestEntityTooLarge, errors.New("submission body too large"))
		return
	}
	rerun := boolParam(r, "rerun")
	st, started, err := s.Submit(body, rerun)
	switch {
	case errors.Is(err, ErrDraining), errors.Is(err, ErrQueueFull):
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusServiceUnavailable, err)
		return
	case errors.As(err, new(*SubmissionError)):
		writeError(w, http.StatusBadRequest, err)
		return
	case err != nil:
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	code := http.StatusOK
	if started {
		code = http.StatusAccepted
	}
	writeJSON(w, code, st)
}

func (s *Service) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"jobs": s.Jobs()})
}

func (s *Service) handleStatus(w http.ResponseWriter, r *http.Request) {
	st, err := s.Job(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

// handleRows serves the job's spooled rows as JSON Lines. With
// ?follow=1 the response stays open: the spooled prefix is written
// first, then rows stream live until the job reaches a rest state. The
// subscription is registered atomically with the file snapshot, so a
// follower sees every row exactly once.
func (s *Service) handleRows(w http.ResponseWriter, r *http.Request) {
	j, err := s.lookup(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")

	if !boolParam(r, "follow") {
		j.mu.Lock()
		data, rerr := os.ReadFile(j.rows)
		j.mu.Unlock()
		if rerr != nil && !os.IsNotExist(rerr) {
			writeError(w, http.StatusInternalServerError, rerr)
			return
		}
		w.Write(data) //nolint:errcheck
		return
	}

	spooled, ch, cancel, terminal := j.subscribe()
	defer cancel()
	w.WriteHeader(http.StatusOK)
	w.Write(spooled) //nolint:errcheck
	flush(w)
	if terminal {
		return
	}
	for {
		select {
		case <-r.Context().Done():
			return
		case ev, ok := <-ch:
			if !ok {
				return
			}
			if ev.kind != "row" {
				continue
			}
			w.Write(ev.data) //nolint:errcheck
			flush(w)
		}
	}
}

// handleEvents streams job progress as Server-Sent Events: one
// "status" event per state/progress change and one "row" event per
// finished cell, ending when the job reaches a rest state.
func (s *Service) handleEvents(w http.ResponseWriter, r *http.Request) {
	j, err := s.lookup(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")

	_, ch, cancel, terminal := j.subscribe()
	defer cancel()
	w.WriteHeader(http.StatusOK)
	writeSSE(w, "status", mustJSON(j.Status()))
	flush(w)
	if terminal {
		return
	}
	for {
		select {
		case <-r.Context().Done():
			return
		case ev, ok := <-ch:
			if !ok {
				return
			}
			writeSSE(w, ev.kind, bytes.TrimSuffix(ev.data, []byte("\n")))
			flush(w)
		}
	}
}

// handleMetrics renders a plain-text snapshot in the prometheus
// exposition style (counters only, no client dependency).
func (s *Service) handleMetrics(w http.ResponseWriter, r *http.Request) {
	m := s.Metrics()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	states := make([]string, 0, len(m.Jobs))
	for st := range m.Jobs {
		states = append(states, string(st))
	}
	sort.Strings(states)
	for _, st := range states {
		fmt.Fprintf(w, "burstlabd_jobs{state=%q} %d\n", st, m.Jobs[JobState(st)])
	}
	fmt.Fprintf(w, "burstlabd_queue_depth %d\n", m.Queued)
	fmt.Fprintf(w, "burstlabd_queue_capacity %d\n", m.QueueCap)
	fmt.Fprintf(w, "burstlabd_draining %d\n", boolMetric(m.Draining))
	mm := m.Memo
	fmt.Fprintf(w, "burstlabd_memo_hits_total{family=\"char\"} %d\n", mm.CharHits)
	fmt.Fprintf(w, "burstlabd_memo_misses_total{family=\"char\"} %d\n", mm.CharMisses)
	fmt.Fprintf(w, "burstlabd_memo_hits_total{family=\"fit\"} %d\n", mm.FitHits)
	fmt.Fprintf(w, "burstlabd_memo_misses_total{family=\"fit\"} %d\n", mm.FitMisses)
	fmt.Fprintf(w, "burstlabd_memo_hits_total{family=\"solve\"} %d\n", mm.SolveHits)
	fmt.Fprintf(w, "burstlabd_memo_misses_total{family=\"solve\"} %d\n", mm.SolveMisses)
	fmt.Fprintf(w, "burstlabd_memo_evictions_total %d\n", mm.Evictions)
	fmt.Fprintf(w, "burstlabd_memo_entries %d\n", mm.Entries)
	fmt.Fprintf(w, "burstlabd_memo_bytes %d\n", mm.Bytes)
}

func (s *Service) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.Draining() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	io.WriteString(w, "ok\n") //nolint:errcheck
}

func boolParam(r *http.Request, name string) bool {
	v := r.URL.Query().Get(name)
	if v == "" {
		return false
	}
	b, err := strconv.ParseBool(v)
	return err == nil && b
}

func boolMetric(b bool) int {
	if b {
		return 1
	}
	return 0
}

func flush(w http.ResponseWriter) {
	if f, ok := w.(http.Flusher); ok {
		f.Flush()
	}
}

func writeSSE(w io.Writer, kind string, data []byte) {
	fmt.Fprintf(w, "event: %s\ndata: %s\n\n", kind, data)
}

func mustJSON(v any) []byte {
	data, err := json.Marshal(v)
	if err != nil {
		return []byte("{}")
	}
	return data
}
