package core

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/trace"
)

func sampleStream() trace.UtilizationSamples {
	u := trace.UtilizationSamples{PeriodSeconds: 5}
	for k := 0; k < 200; k++ {
		u.Utilization = append(u.Utilization, 0.3+0.001*float64(k%30))
		u.Completions = append(u.Completions, 50)
	}
	return u
}

func TestScenarioDefaults(t *testing.T) {
	sc := Scenario{
		ThinkTime:   0.5,
		Populations: []int{10, 20},
		Tiers:       []TierSpec{{Mean: 0.01}, {Mean: 0.02}},
	}.WithDefaults()
	if !sc.Wants(SolverMAP) || !sc.Wants(SolverMVA) {
		t.Fatalf("tier scenario default solvers = %v, want map+mva", sc.Solvers)
	}
	if sc.WantsSimulation() {
		t.Fatalf("tier scenario should not default to simulation: %v", sc.Solvers)
	}

	ws := Scenario{
		ThinkTime:   0.5,
		Populations: []int{10},
		Workload:    &WorkloadSpec{},
	}.WithDefaults()
	if !ws.Wants(SolverCrossValidate) {
		t.Fatalf("workload scenario default solvers = %v, want crossvalidate", ws.Solvers)
	}
	if ws.Workload.Mix != "browsing" || ws.Workload.Tiers != 2 || ws.Workload.Replicas != 3 {
		t.Fatalf("workload defaults = %+v", ws.Workload)
	}
	if err := ws.Validate(); err != nil {
		t.Fatalf("defaulted workload scenario invalid: %v", err)
	}
}

func TestScenarioValidateErrors(t *testing.T) {
	base := Scenario{
		ThinkTime:   0.5,
		Populations: []int{10},
		Tiers:       []TierSpec{{Mean: 0.01}},
	}
	cases := []struct {
		name   string
		mutate func(*Scenario)
		want   string
	}{
		{"zero think time", func(s *Scenario) { s.ThinkTime = 0 }, "think time"},
		{"no populations", func(s *Scenario) { s.Populations = nil }, "population"},
		{"bad population", func(s *Scenario) { s.Populations = []int{0} }, "population"},
		{"unknown solver", func(s *Scenario) { s.Solvers = []SolverKind{"fft"} }, "unknown solver"},
		{"duplicate solver", func(s *Scenario) { s.Solvers = []SolverKind{SolverMAP, SolverMAP} }, "twice"},
		{"model without tiers", func(s *Scenario) { s.Tiers = nil; s.Solvers = []SolverKind{SolverMAP} }, "need"},
		{"sim without workload", func(s *Scenario) { s.Solvers = []SolverKind{SolverSim} }, "workload"},
		{"tier both forms", func(s *Scenario) {
			u := sampleStream()
			s.Tiers = []TierSpec{{Mean: 0.01, Samples: &u}}
		}, "not both"},
		{"tier neither form", func(s *Scenario) { s.Tiers = []TierSpec{{Name: "front"}} }, "needs"},
		{"negative visits", func(s *Scenario) { s.Tiers = []TierSpec{{Mean: 0.01, Visits: -1}} }, "visit"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sc := base
			sc.Tiers = append([]TierSpec(nil), base.Tiers...)
			tc.mutate(&sc)
			sc = sc.WithDefaults()
			err := sc.Validate()
			if err == nil {
				t.Fatal("expected a validation error")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

func TestScenarioJSONRoundTrip(t *testing.T) {
	u := sampleStream()
	sc := Scenario{
		Name:        "roundtrip",
		ThinkTime:   0.75,
		Populations: []int{5, 10, 20},
		Tiers: []TierSpec{
			{Name: "front", Mean: 0.008, IndexOfDispersion: 4, P95: 0.02},
			{Name: "db", Samples: &u, Visits: 1.5},
		},
		Workload: &WorkloadSpec{
			Mix: "shopping", Tiers: 2, Duration: 600, Warmup: 60,
			Cooldown: ZeroWindow, Seed: 42, Replicas: 2, KeepSamples: true,
		},
		Solvers: []SolverKind{SolverMAP, SolverMVA, SolverSim},
		Planner: &PlannerOptions{},
	}
	sc.Planner.Solver.Tol = 1e-8

	data, err := sc.JSON()
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParseScenario(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sc, back) {
		t.Fatalf("round trip mismatch:\nbefore %+v\nafter  %+v", sc, back)
	}
}

// TestParseScenarioRejectsUnknownFields feeds ParseScenario and
// ParseSuite misspelled, trailing and removed inputs. The removed
// solver option "backend" must fail as an unknown field, not be
// dropped silently.
func TestParseScenarioRejectsUnknownFields(t *testing.T) {
	parseScenario := func(data []byte) error { _, err := ParseScenario(data); return err }
	parseSuite := func(data []byte) error { _, err := ParseSuite(data); return err }
	for _, tc := range []struct {
		name  string
		parse func([]byte) error
		in    string
		want  string
	}{
		{"misspelled field", parseScenario, `{"think_time": 0.5, "thik_time": 1}`, `unknown field "thik_time"`},
		{"trailing data", parseScenario, `{"think_time": 0.5} {"x":1}`, "trailing data"},
		{"scenario backend", parseScenario, `{"think_time": 0.5, "planner": {"solver": {"backend": "csr"}}}`, `unknown field "backend"`},
		{"suite backend", parseSuite, `{"base": {"think_time": 0.5, "planner": {"solver": {"backend": "csr"}}}}`, `unknown field "backend"`},
	} {
		if err := tc.parse([]byte(tc.in)); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want one containing %q", tc.name, err, tc.want)
		}
	}
}

func TestParseIntList(t *testing.T) {
	got, err := ParseIntList(" 25, 50,100 ")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, []int{25, 50, 100}) {
		t.Fatalf("got %v", got)
	}
	if _, err := ParseIntList("25,abc"); err == nil {
		t.Fatal("expected parse error")
	}
	if _, err := ParseIntList(" , "); err == nil {
		t.Fatal("expected empty-list error")
	}
}
