// Service-level benchmark: the capacity-planning daemon's repeat-query
// economics. It lives in an external test package because
// internal/service imports the burst facade.
package burst_test

import (
	"context"
	"net/http"
	"net/http/httptest"
	"os"
	"testing"
	"time"

	"repro/internal/service"
)

// BenchmarkServiceRepeatQuery tracks the daemon's headline win: a
// repeated what-if query served from the process-lifetime shared memo
// versus a cold submission. cold builds a fresh service (empty cache)
// per iteration; warm resubmits the same suite (?rerun) to a daemon
// whose memo was populated by a prior run, so every characterize, fit
// and solve is a hit. The reported hit/miss counters are the proof —
// warm must show zero misses — and the cold/warm ns/op ratio is the
// interactive-latency speedup BENCH_solver.json archives.
func BenchmarkServiceRepeatQuery(b *testing.B) {
	body, err := os.ReadFile("examples/suite/suite.json")
	if err != nil {
		b.Fatal(err)
	}
	b.Run("cold", func(b *testing.B) {
		var st service.JobStatus
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			svc := newBenchService(b)
			b.StartTimer()
			st = submitAndWait(b, svc, body, false)
		}
		if st.Memo != nil {
			b.ReportMetric(float64(st.Memo.Misses()), "misses")
			b.ReportMetric(float64(st.Memo.Hits()), "hits")
		}
	})
	// One memo-served rerun is a few milliseconds — scheduler-jitter
	// territory for the 25% benchgate — so each warm iteration runs a
	// batch of resubmits, about half a second in all (a batch of 25,
	// about 0.1 s, swung 28% on unchanged code), and reports the
	// amortized per-resubmit cost as a metric alongside the gated ns/op.
	const warmResubmits = 125
	b.Run("warm", func(b *testing.B) {
		svc := newBenchService(b)
		submitAndWait(b, svc, body, false) // populate the shared memo
		b.ResetTimer()
		var st service.JobStatus
		for i := 0; i < b.N; i++ {
			for k := 0; k < warmResubmits; k++ {
				st = submitAndWait(b, svc, body, true)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*warmResubmits), "ns/resubmit")
		if st.Memo != nil {
			if st.Memo.Misses() != 0 {
				b.Fatalf("warm resubmit recomputed %d stages, want all served from memo", st.Memo.Misses())
			}
			b.ReportMetric(float64(st.Memo.Hits()), "hits")
			b.ReportMetric(0, "misses")
		}
	})
}

func newBenchService(b *testing.B) *service.Service {
	b.Helper()
	svc, err := service.New(service.Config{
		SpoolDir:   b.TempDir(),
		JobWorkers: 2,
		Logf:       func(string, ...any) {},
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		svc.Close(ctx) //nolint:errcheck
	})
	return svc
}

// submitAndWait submits body and blocks until the job reaches a rest
// state. It follows the job's rows stream (GET .../rows?follow=1 on the
// service's own handler, in process, the body discarded), which returns
// when the job finishes, so no polling interval puts a floor under the
// measured time.
func submitAndWait(b *testing.B, svc *service.Service, body []byte, rerun bool) service.JobStatus {
	b.Helper()
	st, _, err := svc.Submit(body, rerun)
	if err != nil {
		b.Fatal(err)
	}
	h := svc.Handler()
	for {
		req := httptest.NewRequest(http.MethodGet, "/api/v1/jobs/"+st.ID+"/rows?follow=1", nil)
		h.ServeHTTP(discardResponse{}, req)
		cur, err := svc.Job(st.ID)
		if err != nil {
			b.Fatal(err)
		}
		switch cur.State {
		case service.JobDone:
			return cur
		case service.JobFailed:
			b.Fatalf("job %s failed: %s", cur.ID, cur.Error)
		}
		// The stream also ends early when the service drops a follower
		// that fell behind; follow again.
	}
}

// discardResponse is an http.ResponseWriter (and Flusher) that drops
// everything written to it.
type discardResponse struct{}

func (discardResponse) Header() http.Header         { return http.Header{} }
func (discardResponse) Write(p []byte) (int, error) { return len(p), nil }
func (discardResponse) WriteHeader(int)             {}
func (discardResponse) Flush()                      {}
