package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"

	burst "repro"
)

// foldDir holds the pinned outputs of the capplan and tpcwsim
// pipelines: the monitoring CSVs tpcwsim emits and the reports of
// representative capplan and tpcwsim flag vectors.
var foldDir = filepath.Join("testdata", "fold")

// foldReportCases maps each pinned report to its subcommand flag
// vector.
var foldReportCases = map[string][]string{
	"capplan_decomp_bounds": {"capplan", "-tiers", foldCSVs, "-ebs", "10,50", "-decomp", "-bounds"},
	"capplan_names_classes": {"capplan", "-tiers", foldCSVs, "-names", "web,db", "-classes", "gold=3,bronze=1"},
	"tpcwsim_zero_warmup":   {"tpcwsim", "-mix", "shopping", "-tiers", "3", "-ebs", "30", "-duration", "600", "-warmup", "0", "-replicas", "2"},
	"tpcwsim_validate":      {"tpcwsim", "-mix", "ordering", "-tiers", "3", "-ebs", "20", "-duration", "600", "-validate"},
}

// foldCSVs feeds capplan the pinned tpcwsim monitoring streams.
var foldCSVs = filepath.Join(foldDir, "front.csv") + "," + filepath.Join(foldDir, "db.csv")

// foldScenario parses a subcommand flag vector into its scenario and
// -csv tier.
func foldScenario(t *testing.T, args []string) (burst.Scenario, string) {
	t.Helper()
	var (
		sc      burst.Scenario
		csvTier string
		err     error
	)
	switch args[0] {
	case "capplan":
		sc, err = capplanScenario(args[1:])
	case "tpcwsim":
		sc, csvTier, err = tpcwsimScenario(args[1:])
	}
	if err != nil {
		t.Fatal(err)
	}
	return sc, csvTier
}

// TestFoldReportGoldens pins Report.JSON() of the capplan and tpcwsim
// subcommands' flag vectors byte for byte.
func TestFoldReportGoldens(t *testing.T) {
	for name, args := range foldReportCases {
		t.Run(name, func(t *testing.T) {
			sc, _ := foldScenario(t, args)
			rep, err := burst.Run(context.Background(), sc)
			if err != nil {
				t.Fatal(err)
			}
			got, err := rep.JSON()
			if err != nil {
				t.Fatal(err)
			}
			compareFoldGolden(t, name+".report.json", got)
		})
	}
}

// TestFoldCSVGoldens pins the bytes of `burstlab tpcwsim -mix browsing
// -ebs 50 -csv front` and of the same command with -csv db.
func TestFoldCSVGoldens(t *testing.T) {
	for _, tier := range []string{"front", "db"} {
		t.Run(tier, func(t *testing.T) {
			sc, csvTier := foldScenario(t, []string{"tpcwsim", "-mix", "browsing", "-ebs", "50", "-csv", tier})
			rep, err := burst.Run(context.Background(), sc)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := emitTierCSV(&buf, rep.Results[0].Sim, csvTier); err != nil {
				t.Fatal(err)
			}
			compareFoldGolden(t, tier+".csv", buf.Bytes())
		})
	}
}

func compareFoldGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	want, err := os.ReadFile(filepath.Join(foldDir, name))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s differs from the golden (%d bytes, want %d)", name, len(got), len(want))
	}
}
