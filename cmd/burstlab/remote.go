package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"
	"time"

	burst "repro"
	"repro/internal/service"
)

// remoteOptions carries burstlab's -remote submission inputs: either a
// suite file (with the usual suite flag overrides) or a scenario file
// wrapped as a single-cell suite.
type remoteOptions struct {
	scenarioPath string
	suite        suiteOptions
}

// runRemote submits the experiment to a running burstlabd, follows the
// job's row stream to completion, and mirrors local burstlab behavior:
// rows go to -out, the summary table prints, and the exit code
// distinguishes partial failure (3) from hard failure (1). The daemon
// owns execution — its shared memo serves repeated submissions — so
// -resume is meaningless here (the daemon resumes its own spool).
func runRemote(ctx context.Context, addr string, rerun bool, o remoteOptions) error {
	suite, err := buildRemoteSuite(o)
	if err != nil {
		return err
	}
	body, err := suite.JSON()
	if err != nil {
		return err
	}

	base := addr
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	base = strings.TrimRight(base, "/")
	client := &http.Client{} // no timeout: the row stream is long-lived

	submitURL := base + "/api/v1/jobs"
	if rerun {
		submitURL += "?rerun=1"
	}
	st, err := postJob(ctx, client, submitURL, body)
	if err != nil {
		return err
	}
	if !o.suite.quiet {
		fmt.Fprintf(os.Stderr, "burstlab: job %s %s (%d cells) on %s\n", st.ID, st.State, st.Cells, base)
	}

	start := time.Now()
	rows, err := followRows(ctx, client, base, st.ID, o.suite.outPath)
	if err != nil {
		return err
	}
	st, err = getStatus(ctx, client, base, st.ID)
	if err != nil {
		return err
	}
	if st.State == service.JobFailed {
		return fmt.Errorf("job %s failed: %s", st.ID, st.Error)
	}
	if st.State != service.JobDone {
		return fmt.Errorf("job %s ended in state %q (daemon draining? resubmit after it restarts)", st.ID, st.State)
	}

	if !o.suite.quiet {
		printSuiteSummary(remoteReport(suite.Name, st, rows), time.Since(start))
		if m := st.Memo; m != nil {
			fmt.Printf("daemon cache: %d hits / %d misses this job (%d entries, %d bytes resident)\n",
				m.Hits(), m.Misses(), m.Entries, m.Bytes)
		}
	}
	if o.suite.outPath != "" && o.suite.outPath != "-" {
		fmt.Fprintf(os.Stderr, "burstlab: %d rows streamed to %s\n", len(rows), o.suite.outPath)
	}
	if st.Failed > 0 {
		return partialFailureError{failed: st.Failed, cells: st.Cells}
	}
	return nil
}

// buildRemoteSuite assembles the suite to submit: the -suite file with
// the usual flag overrides applied before hashing, or the -scenario
// file wrapped as a single-cell suite.
func buildRemoteSuite(o remoteOptions) (burst.Suite, error) {
	var suite burst.Suite
	if o.suite.path != "" {
		var err error
		if suite, err = burst.LoadSuite(o.suite.path); err != nil {
			return burst.Suite{}, err
		}
	} else {
		sc, err := burst.LoadScenario(o.scenarioPath)
		if err != nil {
			return burst.Suite{}, err
		}
		suite = burst.Suite{Name: sc.Name, Base: sc}
	}
	if len(o.suite.classes) > 0 {
		suite.Base.Classes = o.suite.classes
	}
	if o.suite.workers != 0 {
		suite.Workers = o.suite.workers
	}
	if o.suite.onError != "" {
		suite.OnError = burst.FailurePolicy(o.suite.onError)
	}
	if o.suite.retries >= 0 {
		suite.Retry.MaxRetries = o.suite.retries
	}
	if o.suite.cellTimeout > 0 {
		suite.Base.Deadline = o.suite.cellTimeout.Seconds()
	}
	return suite, nil
}

func postJob(ctx context.Context, client *http.Client, url string, body []byte) (service.JobStatus, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return service.JobStatus{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return service.JobStatus{}, fmt.Errorf("submit to daemon: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
		return service.JobStatus{}, fmt.Errorf("submit: daemon said %s: %s", resp.Status, readErr(resp.Body))
	}
	var st service.JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return service.JobStatus{}, fmt.Errorf("submit: parse response: %w", err)
	}
	return st, nil
}

func getStatus(ctx context.Context, client *http.Client, base, id string) (service.JobStatus, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/api/v1/jobs/"+id, nil)
	if err != nil {
		return service.JobStatus{}, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return service.JobStatus{}, fmt.Errorf("job status: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return service.JobStatus{}, fmt.Errorf("job status: daemon said %s: %s", resp.Status, readErr(resp.Body))
	}
	var st service.JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return service.JobStatus{}, fmt.Errorf("job status: parse response: %w", err)
	}
	return st, nil
}

// followRows streams the job's JSONL rows until the job reaches a rest
// state, copying each raw line to outPath ("-" or "" = stdout only when
// "-") and parsing it for the summary. The footer row (if present) is
// copied through like any other line.
func followRows(ctx context.Context, client *http.Client, base, id, outPath string) ([]burst.SuiteRow, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/api/v1/jobs/"+id+"/rows?follow=1", nil)
	if err != nil {
		return nil, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, fmt.Errorf("follow rows: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("follow rows: daemon said %s: %s", resp.Status, readErr(resp.Body))
	}

	var out io.Writer
	switch outPath {
	case "":
	case "-":
		out = os.Stdout
	default:
		f, err := os.OpenFile(outPath, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		out = f
	}

	var rows []burst.SuiteRow
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 64<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		if out != nil {
			out.Write(line)         //nolint:errcheck
			out.Write([]byte{'\n'}) //nolint:errcheck
		}
		var row burst.SuiteRow
		if err := json.Unmarshal(line, &row); err != nil {
			continue
		}
		if row.Status != burst.CellStatusFooter {
			rows = append(rows, row)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("follow rows: %w", err)
	}
	return rows, nil
}

// remoteReport reassembles a SuiteReport from the streamed rows and the
// job's final status so the local summary table renders unchanged.
func remoteReport(name string, st service.JobStatus, rows []burst.SuiteRow) *burst.SuiteReport {
	sort.Slice(rows, func(i, j int) bool { return rows[i].Index < rows[j].Index })
	rep := &burst.SuiteReport{
		Name:    name,
		Cells:   st.Cells,
		Skipped: st.Skipped,
		Failed:  st.Failed,
		Rows:    rows,
	}
	if st.Memo != nil {
		rep.Memo = *st.Memo
	}
	return rep
}

func readErr(r io.Reader) string {
	data, _ := io.ReadAll(io.LimitReader(r, 4096))
	var e struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(data, &e) == nil && e.Error != "" {
		return e.Error
	}
	return strings.TrimSpace(string(data))
}
