package service

import (
	"bufio"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// followLines follows a job's row stream to its end and returns the
// non-empty lines it carried.
func followLines(url, id string) ([]string, error) {
	resp, err := http.Get(url + "/api/v1/jobs/" + id + "/rows?follow=1")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("follow status %d", resp.StatusCode)
	}
	var lines []string
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 16<<20)
	for sc.Scan() {
		if line := sc.Text(); strings.TrimSpace(line) != "" {
			lines = append(lines, line)
		}
	}
	return lines, sc.Err()
}

// TestConcurrentFollowersShareRows runs two rows?follow=1 requests on
// one job while its rows stream live. Every follower receives the same
// row buffers, so under -race this pins that no handler writes into
// them; both streams must equal the spool file line for line.
func TestConcurrentFollowersShareRows(t *testing.T) {
	svc := newTestService(t, Config{JobWorkers: 1})
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	// A blocker occupies the only worker, for far longer than two local
	// requests take, so the followed job is still queued when both
	// followers subscribe: its rows all arrive live.
	if _, _, err := svc.Submit(mustJSONSuite(t, testSuite("blocker", 30, 40)), false); err != nil {
		t.Fatal(err)
	}
	st, _, err := svc.Submit(mustJSONSuite(t, testSuite("followed", 5, 10, 15, 20)), false)
	if err != nil {
		t.Fatal(err)
	}
	got := make([][]string, 2)
	errs := make([]error, len(got))
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i], errs[i] = followLines(ts.URL, st.ID)
		}(i)
	}
	wg.Wait()

	spool, err := os.ReadFile(filepath.Join(svc.cfg.SpoolDir, st.ID, "rows.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(spool), "\n"), "\n")
	if len(want) != 5 {
		t.Fatalf("spool holds %d rows, want 5 (4 cells + footer)", len(want))
	}
	for i, lines := range got {
		if errs[i] != nil {
			t.Fatalf("follower %d: %v", i, errs[i])
		}
		if strings.Join(lines, "\n") != strings.Join(want, "\n") {
			t.Fatalf("follower %d streamed %d rows that differ from the spool's %d", i, len(lines), len(want))
		}
	}
}

// TestFollowDuringRerunNeverEmpty races followers against ?rerun=1
// resubmissions of a finished job. A follower must see either the
// finished job with its rows or the re-queued job streaming new ones;
// a terminal snapshot with no rows means it caught a finished job whose
// spool was already discarded. The followers subscribe as handleRows
// does, in a tight loop, so they probe every instant of a rerun.
func TestFollowDuringRerunNeverEmpty(t *testing.T) {
	svc := newTestService(t, Config{JobWorkers: 1})
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	spec := mustJSONSuite(t, testSuite("rerun-follow", 5))
	st, _, err := svc.Submit(spec, false)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, svc, st.ID, JobDone)
	j, err := svc.lookup(st.ID)
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var terminalFollows atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				spooled, _, cancel, terminal := j.subscribe()
				cancel()
				if terminal {
					if len(spooled) == 0 {
						t.Error("follow of a finished job got an empty stream")
						return
					}
					terminalFollows.Add(1)
				}
			}
		}()
	}
	for i := 0; i < 100; i++ {
		resp, err := http.Post(ts.URL+"/api/v1/jobs?rerun=1", "application/json", strings.NewReader(string(spec)))
		if err != nil {
			t.Error(err)
			break
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			t.Errorf("rerun %d: status %d, want 202", i, resp.StatusCode)
			break
		}
		waitState(t, svc, st.ID, JobDone)
	}
	close(stop)
	wg.Wait()
	if terminalFollows.Load() == 0 {
		t.Fatal("no follow saw the finished job")
	}
}
