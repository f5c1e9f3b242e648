package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/markov"
)

// gridSuite is a small model-only suite: 2 I-values × 3 population
// lists = 6 cells.
func gridSuite() Suite {
	return Suite{
		Name: "grid",
		Base: Scenario{
			ThinkTime: 0.5,
			Tiers: []TierSpec{
				{Name: "front", Mean: 0.006, IndexOfDispersion: 3, P95: 0.015},
				{Name: "db", Mean: 0.009, IndexOfDispersion: 40, P95: 0.02},
			},
			Solvers: []SolverKind{SolverMVA},
		},
		Grid: Grid{
			TierAxes:    []TierAxis{{Tier: 1, Param: TierParamI, Values: []float64{4, 40}}},
			Populations: [][]int{{5}, {10}, {5, 10}},
		},
	}
}

func TestSuiteExpandDeterministic(t *testing.T) {
	s := gridSuite()
	cells, err := s.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 6 || s.Grid.Cells() != 6 {
		t.Fatalf("cells = %d (Cells() = %d), want 6", len(cells), s.Grid.Cells())
	}
	// Row-major, later axes fastest: I=4 with all three population
	// entries, then I=40.
	wantNames := []string{
		"grid db.index_of_dispersion=4 N=5",
		"grid db.index_of_dispersion=4 N=10",
		"grid db.index_of_dispersion=4 N=5,10",
		"grid db.index_of_dispersion=40 N=5",
		"grid db.index_of_dispersion=40 N=10",
		"grid db.index_of_dispersion=40 N=5,10",
	}
	for i, cell := range cells {
		if cell.Name != wantNames[i] {
			t.Errorf("cell %d name %q, want %q", i, cell.Name, wantNames[i])
		}
		if cell.Index != i {
			t.Errorf("cell %d index %d", i, cell.Index)
		}
		if len(cell.Hash) != 64 {
			t.Errorf("cell %d hash %q not a sha256 hex", i, cell.Hash)
		}
		if err := cell.Scenario.Validate(); err != nil {
			t.Errorf("cell %d invalid: %v", i, err)
		}
	}
	if cells[0].Scenario.Tiers[1].IndexOfDispersion != 4 || cells[3].Scenario.Tiers[1].IndexOfDispersion != 40 {
		t.Fatalf("tier axis not applied: %v / %v",
			cells[0].Scenario.Tiers[1].IndexOfDispersion, cells[3].Scenario.Tiers[1].IndexOfDispersion)
	}
	if !reflect.DeepEqual(cells[2].Scenario.Populations, []int{5, 10}) {
		t.Fatalf("population axis not applied: %v", cells[2].Scenario.Populations)
	}
	// The base scenario must be untouched by cell patches.
	if s.Base.Tiers[1].IndexOfDispersion != 40 || s.Base.Populations != nil {
		t.Fatalf("expansion mutated the base: %+v", s.Base)
	}
	// Expansion is reproducible: same cells, same hashes.
	again, err := s.Expand()
	if err != nil {
		t.Fatal(err)
	}
	for i := range cells {
		if cells[i].Hash != again[i].Hash {
			t.Errorf("cell %d hash changed across expansions", i)
		}
	}
	// Distinct cells hash distinctly.
	seen := map[string]int{}
	for i, cell := range cells {
		if j, dup := seen[cell.Hash]; dup {
			t.Errorf("cells %d and %d share hash %s", j, i, cell.Hash)
		}
		seen[cell.Hash] = i
	}
}

func TestSuiteExpandValidates(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Suite)
		want   string
	}{
		{"tier out of range", func(s *Suite) { s.Grid.TierAxes[0].Tier = 7 }, "out of range"},
		{"bad param", func(s *Suite) { s.Grid.TierAxes[0].Param = "scv" }, "unknown param"},
		{"empty values", func(s *Suite) { s.Grid.TierAxes[0].Values = nil }, "no values"},
		{"empty population entry", func(s *Suite) { s.Grid.Populations = [][]int{{}} }, "empty"},
		{"mixes without workload", func(s *Suite) { s.Grid.Mixes = []string{"browsing"} }, "workload"},
		{"empty mix", func(s *Suite) {
			s.Base.Workload = &WorkloadSpec{}
			s.Grid.Mixes = []string{""}
		}, "mixes entry"},
		{"zero replicas", func(s *Suite) {
			s.Base.Workload = &WorkloadSpec{}
			s.Grid.Replicas = []int{1, 0}
		}, "must be >= 1"},
		{"empty solver set", func(s *Suite) { s.Grid.Solvers = [][]SolverKind{{SolverMVA}, {}} }, "solvers entry"},
		{"invalid cell", func(s *Suite) { s.Grid.TierAxes[0].Values = []float64{-1} }, "index of dispersion"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := gridSuite()
			tc.mutate(&s)
			_, err := s.Expand()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %v does not mention %q", err, tc.want)
			}
		})
	}
}

func TestSuiteSampledTierAxisRejected(t *testing.T) {
	u := sampleStream()
	s := gridSuite()
	s.Base.Tiers[1] = TierSpec{Name: "db", Samples: &u}
	if _, err := s.Expand(); err == nil || !strings.Contains(err.Error(), "sample-measured") {
		t.Fatalf("sampled tier axis error = %v", err)
	}
}

func TestSuiteJSONRoundTrip(t *testing.T) {
	s := gridSuite()
	data, err := s.JSON()
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParseSuite(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s, back) {
		t.Fatalf("suite round trip mismatch:\nbefore %+v\nafter  %+v", s, back)
	}
	if _, err := ParseSuite([]byte(`{"base": {}, "grdi": {}}`)); err == nil {
		t.Fatal("expected unknown-field error")
	}
}

func TestCanonicalJSONSortsAndPreservesNumbers(t *testing.T) {
	a, err := CanonicalJSON(map[string]any{"b": 1, "a": []any{2.5, "x"}})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := string(a), `{"a":[2.5,"x"],"b":1}`; got != want {
		t.Fatalf("canonical = %s, want %s", got, want)
	}
	// int64 seeds beyond float64's integer range survive exactly.
	big := struct {
		Seed int64 `json:"seed"`
	}{int64(1)<<60 + 7}
	b, err := CanonicalJSON(big)
	if err != nil {
		t.Fatal(err)
	}
	if want := fmt.Sprintf(`{"seed":%d}`, big.Seed); string(b) != want {
		t.Fatalf("canonical = %s, want %s", b, want)
	}
}

// TestScenarioHashStable is the canonicalization fix's pin: the content
// hash is invariant to JSON formatting, field order, float spelling,
// and to materialized-vs-unset defaults.
func TestScenarioHashStable(t *testing.T) {
	sc := Scenario{
		ThinkTime:   0.5,
		Populations: []int{25, 50},
		Tiers:       []TierSpec{{Name: "db", Mean: 0.009, IndexOfDispersion: 40, P95: 0.02}},
		Solvers:     []SolverKind{SolverMAP, SolverMVA},
	}
	h1, err := sc.Hash()
	if err != nil {
		t.Fatal(err)
	}

	// The same scenario spelled differently in a file: reordered keys,
	// exponent-form floats, noisy whitespace.
	alt := []byte(`{
		"solvers": ["map", "mva"],
		"tiers": [{"p95": 2e-2, "index_of_dispersion": 4.0e1, "mean": 9e-3, "name": "db"}],
		"populations": [25, 50],
		"think_time": 5e-1
	}`)
	parsed, err := ParseScenario(alt)
	if err != nil {
		t.Fatal(err)
	}
	h2, err := parsed.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if h1 != h2 {
		t.Fatalf("hash not canonical: %s vs %s", h1, h2)
	}

	// Defaults don't shift the hash: WithDefaults is applied before
	// hashing, so an explicit solver list equal to the default and an
	// unset one agree.
	unset := sc
	unset.Solvers = nil
	h3, err := unset.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if h1 != h3 {
		t.Fatalf("hash differs for defaulted scenario: %s vs %s", h1, h3)
	}

	// JSON() output is itself canonical: byte-stable and key-sorted.
	j1, err := sc.JSON()
	if err != nil {
		t.Fatal(err)
	}
	j2, err := parsed.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(j1, j2) {
		t.Fatalf("Scenario.JSON not canonical:\n%s\nvs\n%s", j1, j2)
	}
	// A semantically different scenario must hash differently.
	other := sc
	other.ThinkTime = 0.6
	h4, err := other.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if h4 == h1 {
		t.Fatal("distinct scenarios share a hash")
	}
}

func TestMemoSingleFlight(t *testing.T) {
	m := NewMemo()
	var computed int32
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, err := m.Fit("same-key", func() (markov.FitResult, error) {
				atomic.AddInt32(&computed, 1)
				return markov.FitResult{SCV: 7}, nil
			})
			if err != nil || got.SCV != 7 {
				t.Errorf("Fit = (%v, %v)", got, err)
			}
		}()
	}
	wg.Wait()
	if computed != 1 {
		t.Fatalf("compute ran %d times, want 1 (single flight)", computed)
	}
	st := m.Stats()
	if st.FitMisses != 1 || st.FitHits != 15 {
		t.Fatalf("stats = %+v, want 1 miss / 15 hits", st)
	}
	// Errors are cached like values.
	wantErr := errors.New("boom")
	if _, err := lookup(m, memoSolve, "k", func() ([]PredictionN, error) { return nil, wantErr }); !errors.Is(err, wantErr) {
		t.Fatalf("err = %v", err)
	}
	if _, err := lookup(m, memoSolve, "k", func() ([]PredictionN, error) {
		t.Error("error entry recomputed")
		return nil, nil
	}); !errors.Is(err, wantErr) {
		t.Fatalf("cached err = %v", err)
	}
	// A nil memo computes directly.
	var nilMemo *Memo
	if v, err := nilMemo.Fit("x", func() (markov.FitResult, error) { return markov.FitResult{SCV: 3}, nil }); err != nil || v.SCV != 3 {
		t.Fatalf("nil memo Fit = (%v, %v)", v, err)
	}
	if got := nilMemo.Stats(); got != (MemoStats{}) {
		t.Fatalf("nil memo stats = %+v", got)
	}
}

func TestJSONLSinkRoundTripAndResume(t *testing.T) {
	path := filepath.Join(t.TempDir(), "rows.jsonl")
	sink, err := OpenJSONLSink(path)
	if err != nil {
		t.Fatal(err)
	}
	rows := []SuiteRow{
		{Index: 0, Name: "a", Hash: "h0", Report: &Report{}},
		{Index: 1, Name: "b", Hash: "h1", Skipped: true},
		{Index: 2, Name: "c", Hash: "h2", Report: &Report{}},
	}
	for _, r := range rows {
		if err := sink.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	// A torn trailing line (killed process) must not break resume.
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"index": 3, "name": "torn`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	back, err := ReadJSONLRows(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 3 || back[0].Hash != "h0" || !back[1].Skipped {
		t.Fatalf("rows = %+v", back)
	}
	done, err := ReadJSONLHashes(path)
	if err != nil {
		t.Fatal(err)
	}
	// Skipped rows don't count as completed.
	if !reflect.DeepEqual(done, map[string]bool{"h0": true, "h2": true}) {
		t.Fatalf("hashes = %v", done)
	}
	// A missing file is an empty resume set, not an error.
	none, err := ReadJSONLHashes(filepath.Join(t.TempDir(), "absent.jsonl"))
	if err != nil || len(none) != 0 {
		t.Fatalf("missing file: (%v, %v)", none, err)
	}

	// Resume-append heals the torn trailing line: the next row starts
	// on a fresh line instead of corrupting the partial one.
	app, err := AppendJSONLSink(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := app.Write(SuiteRow{Index: 4, Name: "d", Hash: "h4", Report: &Report{}}); err != nil {
		t.Fatal(err)
	}
	if err := app.Close(); err != nil {
		t.Fatal(err)
	}
	after, err := ReadJSONLRows(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(after) != 4 || after[3].Hash != "h4" {
		t.Fatalf("rows after resume-append = %+v", after)
	}

	// A fresh (non-resume) open truncates: no duplicate stale rows.
	fresh, err := OpenJSONLSink(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh.Write(SuiteRow{Index: 0, Name: "only", Hash: "h9"}); err != nil {
		t.Fatal(err)
	}
	if err := fresh.Close(); err != nil {
		t.Fatal(err)
	}
	final, err := ReadJSONLRows(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(final) != 1 || final[0].Hash != "h9" {
		t.Fatalf("rows after truncating open = %+v", final)
	}
}

// stubRunner labels each cell's report with its name so tests can see
// which scenario produced which row.
func stubRunner(ctx context.Context, cell SuiteCell) (*Report, error) {
	return &Report{Scenario: cell.Scenario}, nil
}

func TestRunSuiteEngineOrderingAndSkip(t *testing.T) {
	s := gridSuite()
	cells, err := s.Expand()
	if err != nil {
		t.Fatal(err)
	}
	s.Skip = map[string]bool{cells[2].Hash: true}
	sink := NewMemorySink()
	var events []string
	s.OnProgress = func(ev SuiteEvent) { events = append(events, ev.Stage) }

	rep, err := RunSuite(context.Background(), s, stubRunner, sink)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Cells != 6 || rep.Skipped != 1 || len(rep.Rows) != 6 {
		t.Fatalf("report shape: %+v", rep)
	}
	for i, row := range rep.Rows {
		if row.Index != i || row.Name != cells[i].Name {
			t.Errorf("row %d out of order: %+v", i, row)
		}
		if i == 2 {
			if !row.Skipped || row.Report != nil {
				t.Errorf("row 2 should be skipped: %+v", row)
			}
			continue
		}
		if row.Skipped || row.Report == nil || row.Report.Scenario.Name != cells[i].Name {
			t.Errorf("row %d wrong report: %+v", i, row)
		}
	}
	// Skipped cells never reach sinks; the 5 live rows do.
	if got := sink.Rows(); len(got) != 5 {
		t.Fatalf("sink rows = %d, want 5", len(got))
	}
	var skips, dones int
	for _, ev := range events {
		switch ev {
		case SuiteStageSkip:
			skips++
		case SuiteStageDone:
			dones++
		}
	}
	if skips != 1 || dones != 5 {
		t.Fatalf("progress events: %d skips, %d dones (%v)", skips, dones, events)
	}
}

func TestRunSuiteEngineFailFast(t *testing.T) {
	s := gridSuite()
	s.Workers = 2
	var runs int32
	boom := errors.New("cell exploded")
	runner := func(ctx context.Context, cell SuiteCell) (*Report, error) {
		if atomic.AddInt32(&runs, 1) == 1 {
			return nil, boom
		}
		return stubRunner(ctx, cell)
	}
	rep, err := RunSuite(context.Background(), s, runner)
	if rep != nil || !errors.Is(err, boom) {
		t.Fatalf("RunSuite = (%v, %v), want the cell error", rep, err)
	}
	if !strings.Contains(err.Error(), "suite cell") {
		t.Fatalf("error %q lacks cell context", err)
	}
}
