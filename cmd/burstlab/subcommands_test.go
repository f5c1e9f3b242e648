package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	burst "repro"
)

// TestRunRejectsBadInvocations pins the errors run reports before
// anything is read, fitted or simulated.
func TestRunRejectsBadInvocations(t *testing.T) {
	badCSV := filepath.Join(t.TempDir(), "bad.csv")
	if err := os.WriteFile(badCSV, []byte("0.5,10\nbusy,10\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"unknown subcommand", []string{"frobnicate"}, `unknown subcommand "frobnicate"`},
		{"unknown csv tier", []string{"tpcwsim", "-csv", "nope"}, `tpcwsim: unknown tier "nope" (have [front db])`},
		{"csv tier beyond -tiers", []string{"tpcwsim", "-tiers", "3", "-csv", "app1"}, `tpcwsim: unknown tier "app1" (have [front app db])`},
		{"csv with several populations", []string{"tpcwsim", "-csv", "front", "-ebs", "10,20"}, "-csv needs a single -ebs value (got 2 populations)"},
		{"csv with validate", []string{"tpcwsim", "-csv", "front", "-validate"}, "-csv cannot be combined with -validate"},
		{"zero replicas", []string{"tpcwsim", "-replicas", "0"}, "replicas 0 must be >= 1"},
		{"missing tiers", []string{"capplan"}, "capplan: -tiers is required"},
		{"legacy front/db pair", []string{"capplan", "-front", "f.csv", "-db", "d.csv"}, "flag provided but not defined: -front"},
		{"removed -backend flag", []string{"-backend", "csr", "-scenario", "s.json"}, "flag provided but not defined: -backend"},
		{"names count mismatch", []string{"capplan", "-tiers", "a.csv,b.csv", "-names", "web"}, "-names lists 1 names for 2 tiers"},
		{"bad population list", []string{"capplan", "-tiers", "a.csv", "-ebs", "10,nope"}, `-ebs: core: bad count "nope"`},
		{"bad class list", []string{"capplan", "-tiers", "a.csv", "-classes", "gold=0"}, `-classes: core: class "gold": weight 0 must be > 0`},
		{"bad csv line", []string{"capplan", "-tiers", badCSV}, "tier 0 (" + badCSV + "): line 2: bad utilization"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := run(tc.args)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("run(%q) = %v, want an error containing %q", tc.args, err, tc.want)
			}
		})
	}
}

func TestCLIWindowSentinel(t *testing.T) {
	if got := cliWindow(0, true); got != burst.ZeroWindow {
		t.Fatalf("explicit zero -> %v, want ZeroWindow", got)
	}
	if got := cliWindow(0, false); got != 0 {
		t.Fatalf("unset -> %v, want 0 (library default)", got)
	}
	if got := cliWindow(30, true); got != 30 {
		t.Fatalf("explicit 30 -> %v", got)
	}
}
