package trace

import (
	"reflect"
	"strings"
	"testing"
)

func TestReadUtilizationCSV(t *testing.T) {
	cases := []struct {
		name, in string
		util     []float64
		compl    []float64
		err      string
	}{
		{name: "plain", in: "0.5,10\n0.25,4\n", util: []float64{0.5, 0.25}, compl: []float64{10, 4}},
		{name: "blank and comment lines", in: "# util,compl\n\n 0.5 , 10 \n   \n#x\n0.1,2", util: []float64{0.5, 0.1}, compl: []float64{10, 2}},
		{name: "empty", in: ""},
		{name: "one field", in: "0.5,10\n# note\n0.5\n", err: "line 3: want utilization,completions"},
		{name: "three fields", in: "0.5,10,1\n", err: "line 1: want utilization,completions"},
		{name: "bad utilization", in: "\n0.5,10\nbusy,10\n", err: `line 3: bad utilization: strconv.ParseFloat: parsing "busy": invalid syntax`},
		{name: "bad completions", in: "0.5,ten\n", err: `line 1: bad completions: strconv.ParseFloat: parsing "ten": invalid syntax`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			u, err := ReadUtilizationCSV(strings.NewReader(tc.in), 5)
			if tc.err != "" {
				if err == nil || err.Error() != tc.err {
					t.Fatalf("err = %v, want %q", err, tc.err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if u.PeriodSeconds != 5 || !reflect.DeepEqual(u.Utilization, tc.util) || !reflect.DeepEqual(u.Completions, tc.compl) {
				t.Fatalf("got %+v, want utilization %v completions %v", u, tc.util, tc.compl)
			}
		})
	}
}

// FuzzReadUtilizationCSV checks that no input panics the reader and
// that every accepted input yields one completion count per
// utilization sample.
func FuzzReadUtilizationCSV(f *testing.F) {
	f.Add("0.5,10\n0.25,4\n")
	f.Fuzz(func(t *testing.T, in string) {
		u, err := ReadUtilizationCSV(strings.NewReader(in), 5)
		if err == nil && len(u.Utilization) != len(u.Completions) {
			t.Fatalf("accepted %q with %d utilizations and %d completions", in, len(u.Utilization), len(u.Completions))
		}
	})
}
