package core

import (
	"reflect"
	"strings"
	"testing"
)

// classSuite is a model-only multiclass suite base: two tiers, two
// weighted classes.
func classSuite() Suite {
	return Suite{
		Name: "classes",
		Base: Scenario{
			ThinkTime: 0.5,
			Tiers: []TierSpec{
				{Name: "front", Mean: 0.006, IndexOfDispersion: 3, P95: 0.015},
				{Name: "db", Mean: 0.009, IndexOfDispersion: 40, P95: 0.02},
			},
			Classes: []ClassSpec{
				{Name: "light", Weight: 1, TierDemands: []float64{0.004, 0.005}},
				{Name: "heavy", Weight: 1, TierDemands: []float64{0.009, 0.03}},
			},
			Populations: []int{5},
			Solvers:     []SolverKind{SolverMVA},
		},
	}
}

func TestSuiteClassWeightAxis(t *testing.T) {
	s := classSuite()
	s.Grid.ClassWeights = [][]float64{{3, 1}, {1, 1}}
	cells, err := s.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 2 {
		t.Fatalf("cells = %d, want 2", len(cells))
	}
	if got := cells[0].Name; got != "classes class_mix=3/1" {
		t.Errorf("cell 0 name %q", got)
	}
	for i, want := range [][]float64{{3, 1}, {1, 1}} {
		for c := range want {
			cl := cells[i].Scenario.Classes[c]
			if cl.Weight != want[c] || cl.Population != 0 {
				t.Errorf("cell %d class %d = weight %v pop %d, want weight %v pop 0",
					i, c, cl.Weight, cl.Population, want[c])
			}
			// Demand overrides must survive the axis patch.
			if len(cl.TierDemands) != 2 {
				t.Errorf("cell %d class %d lost its tier demands", i, c)
			}
		}
	}
	// The base scenario's classes must be untouched.
	if s.Base.Classes[0].Weight != 1 {
		t.Fatalf("expansion mutated the base classes: %+v", s.Base.Classes)
	}
	if cells[0].Hash == cells[1].Hash {
		t.Error("distinct class mixes share a hash")
	}
}

func TestSuiteClassPopulationAxis(t *testing.T) {
	s := classSuite()
	s.Grid.ClassPopulations = [][]int{{4, 1}, {2, 3}}
	cells, err := s.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 2 {
		t.Fatalf("cells = %d, want 2", len(cells))
	}
	if got := cells[1].Name; got != "classes class_N=2,3" {
		t.Errorf("cell 1 name %q", got)
	}
	for i, want := range [][]int{{4, 1}, {2, 3}} {
		for c := range want {
			cl := cells[i].Scenario.Classes[c]
			if cl.Population != want[c] || cl.Weight != 0 {
				t.Errorf("cell %d class %d = pop %d weight %v, want pop %d weight 0",
					i, c, cl.Population, cl.Weight, want[c])
			}
		}
	}
}

func TestSuiteClassAxisValidation(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Suite)
		want   string
	}{
		{"no base classes", func(s *Suite) {
			s.Base.Classes = nil
			s.Grid.ClassWeights = [][]float64{{3, 1}}
		}, "declares none"},
		{"weight vector length", func(s *Suite) {
			s.Grid.ClassWeights = [][]float64{{3}}
		}, "1 weights for 2 classes"},
		{"zero weight", func(s *Suite) {
			s.Grid.ClassWeights = [][]float64{{3, 0}}
		}, "must be > 0"},
		{"population vector length", func(s *Suite) {
			s.Grid.ClassPopulations = [][]int{{1, 2, 3}}
		}, "3 counts for 2 classes"},
		{"zero population", func(s *Suite) {
			s.Grid.ClassPopulations = [][]int{{5, 0}}
		}, "must be >= 1"},
		{"infeasible split", func(s *Suite) {
			// Fixed per-class counts must sum to each sweep population.
			s.Grid.ClassPopulations = [][]int{{4, 4}}
		}, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := classSuite()
			tc.mutate(&s)
			_, err := s.Expand()
			if err == nil {
				t.Fatal("expansion succeeded, want error")
			}
			if tc.want != "" && !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %v does not mention %q", err, tc.want)
			}
		})
	}
}

func TestParseClassList(t *testing.T) {
	got, err := ParseClassList("browsing=3, ordering=1")
	if err != nil {
		t.Fatal(err)
	}
	want := []ClassSpec{{Name: "browsing", Weight: 3}, {Name: "ordering", Weight: 1}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("weights: got %+v, want %+v", got, want)
	}

	got, err = ParseClassList("gold:20,bronze:5")
	if err != nil {
		t.Fatal(err)
	}
	want = []ClassSpec{{Name: "gold", Population: 20}, {Name: "bronze", Population: 5}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("populations: got %+v, want %+v", got, want)
	}

	got, err = ParseClassList("browsing,ordering")
	if err != nil {
		t.Fatal(err)
	}
	want = []ClassSpec{{Name: "browsing"}, {Name: "ordering"}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("bare names: got %+v, want %+v", got, want)
	}

	for _, bad := range []string{"", "  ", "a=x", "a=0", "a=-1", "a:zz", "a:0", "=3", ":5"} {
		if _, err := ParseClassList(bad); err == nil {
			t.Errorf("ParseClassList(%q) succeeded, want error", bad)
		}
	}
}
