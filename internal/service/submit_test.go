package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
)

// submitFixtures are the invalid submissions under testdata/submit,
// each a corruption of valid.json, with a piece of the error message
// they must be rejected with. The first four fail to parse, so they
// never reach an ID (backend_field.json sets the removed solver option
// "backend"); the last three parse and fail expansion, so their ID can
// be known to the service only as a job recovered from the spool. The
// last asks for 10^6 cells in about 1.5 KB.
var submitFixtures = []struct {
	file   string
	parses bool
	msg    string
}{
	{"not_json.txt", false, "neither a suite"},
	{"unknown_field.json", false, `unknown field "populatoins"`},
	{"trailing_data.json", false, "trailing data after the suite object"},
	{"backend_field.json", false, `unknown field "backend"`},
	{"invalid_scenario.json", true, "think time -0.5 must be > 0"},
	{"grid_base_mismatch.json", true, "grid varies the workload"},
	{"million_cells.json", true, "grid expands to more than 65536 cells"},
}

func readSubmitFixture(t testing.TB, name string) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", "submit", name))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// postJob submits body through the HTTP API and returns the response.
func postJob(svc *Service, body []byte, rerun bool) *httptest.ResponseRecorder {
	target := "/api/v1/jobs"
	if rerun {
		target += "?rerun=1"
	}
	rec := httptest.NewRecorder()
	svc.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, target, bytes.NewReader(body)))
	return rec
}

// assertRejected requires data to be rejected, plain and as a rerun,
// with a *SubmissionError naming msg from Submit and with 400 Bad
// Request from the HTTP API, and the service to admit no job for it.
func assertRejected(t *testing.T, svc *Service, data []byte, msg string) {
	t.Helper()
	jobs := len(svc.Jobs())
	for _, rerun := range []bool{false, true} {
		_, started, err := svc.Submit(data, rerun)
		var subErr *SubmissionError
		if !errors.As(err, &subErr) || !strings.Contains(err.Error(), msg) {
			t.Fatalf("rerun=%v: error %v (%T), want a *SubmissionError naming %q", rerun, err, err, msg)
		}
		if started {
			t.Fatalf("rerun=%v: a rejected submission started work", rerun)
		}
		rec := postJob(svc, data, rerun)
		var body struct{ Error string }
		if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
			t.Fatalf("rerun=%v: HTTP body %q: %v", rerun, rec.Body, err)
		}
		if rec.Code != http.StatusBadRequest || !strings.Contains(body.Error, msg) {
			t.Fatalf("rerun=%v: HTTP %d %q, want 400 naming %q", rerun, rec.Code, body.Error, msg)
		}
	}
	if got := len(svc.Jobs()); got != jobs {
		t.Fatalf("%d jobs after rejected submissions, want %d", got, jobs)
	}
}

// plantRecovered writes suite into spool as a job a previous process
// admitted and returns its ID, as recovery will register it.
func plantRecovered(t *testing.T, spool string, suite core.Suite) string {
	t.Helper()
	id, err := core.HashJSON(suite)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := suite.JSON()
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(spool, id)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "suite.json"), spec, 0o644); err != nil {
		t.Fatal(err)
	}
	return id
}

// TestSubmitRejectsInvalidFixtures checks each invalid submission on a
// service that has never seen it (a new ID) and on one that already
// knows it: the valid suite it corrupts for the fixtures that do not
// parse, and for those that parse but do not expand, the fixture itself
// as a job recovered from the spool (a suite that expanded when it was
// admitted and no longer does). Submit expands only unseen IDs, so the
// recovered job's expansion error must still reject it.
func TestSubmitRejectsInvalidFixtures(t *testing.T) {
	valid := readSubmitFixture(t, "valid.json")
	for _, c := range submitFixtures {
		data := readSubmitFixture(t, c.file)
		t.Run(c.file+"/new", func(t *testing.T) {
			assertRejected(t, newTestService(t, Config{}), data, c.msg)
		})
		t.Run(c.file+"/known", func(t *testing.T) {
			if !c.parses {
				svc := newTestService(t, Config{})
				st, _, err := svc.Submit(valid, false)
				if err != nil {
					t.Fatal(err)
				}
				waitState(t, svc, st.ID, JobDone)
				assertRejected(t, svc, data, c.msg)
				return
			}
			suite, err := core.ParseSuite(data)
			if err != nil {
				t.Fatal(err)
			}
			spool := t.TempDir()
			id := plantRecovered(t, spool, suite)
			svc := newTestService(t, Config{SpoolDir: spool})
			if _, err := svc.Job(id); err != nil {
				t.Fatalf("planted job not recovered: %v", err)
			}
			waitState(t, svc, id, JobFailed)
			assertRejected(t, svc, data, c.msg)
		})
	}
}

// FuzzSubmit feeds arbitrary bodies to the submit handler of a service
// that is draining, so nothing it admits runs. Every body must be
// answered 400 with a *SubmissionError from Submit, or, when it parses
// and expands, 503 with ErrDraining; nothing may panic.
func FuzzSubmit(f *testing.F) {
	for _, c := range submitFixtures {
		f.Add(readSubmitFixture(f, c.file))
	}
	f.Add(readSubmitFixture(f, "valid.json"))
	f.Add([]byte(`{"think_time": 0.5, "populations": [3], "tiers": [{"mean": 0.01}], "solvers": ["mva"]}`))
	svc, err := New(Config{SpoolDir: f.TempDir()})
	if err != nil {
		f.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := svc.Close(ctx); err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if suite, err := core.ParseSuite(data); err == nil && suite.Grid.Cells() > maxFuzzCells {
			return // a short body can ask for thousands of cells, each expanded
		}
		_, _, err := svc.Submit(data, false)
		var subErr *SubmissionError
		switch {
		case errors.As(err, &subErr):
			if code := postJob(svc, data, false).Code; code != http.StatusBadRequest {
				t.Fatalf("invalid submission answered %d, want 400: %v", code, err)
			}
		case errors.Is(err, ErrDraining):
			if code := postJob(svc, data, false).Code; code != http.StatusServiceUnavailable {
				t.Fatalf("submission to a draining service answered %d, want 503", code)
			}
		default:
			t.Fatalf("Submit error %v (%T), want a *SubmissionError or ErrDraining", err, err)
		}
	})
}

// maxFuzzCells caps the grids FuzzSubmit expands.
const maxFuzzCells = 64
