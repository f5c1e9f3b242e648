package main

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

// TestMediansMergesRepeats checks that repeated runs of a benchmark
// collapse into one record holding per-metric medians, that a single
// run passes through unchanged, and that first-seen order is kept.
func TestMediansMergesRepeats(t *testing.T) {
	var runs []Benchmark
	for _, line := range []string{
		"BenchmarkA-2   3   300 ns/op   16 B/op   2 allocs/op",
		"BenchmarkB-2   1   7 ns/op   5 states",
		"BenchmarkA-2   5   100 ns/op   16 B/op   2 allocs/op",
		"BenchmarkA-2   4   900 ns/op   32 B/op   4 allocs/op",
		"BenchmarkC-2   2   10 ns/op",
		"BenchmarkC-2   2   20 ns/op",
	} {
		b, ok := parseLine(line)
		if !ok {
			t.Fatalf("parseLine(%q) failed", line)
		}
		runs = append(runs, b)
	}
	got := medians(runs)
	if len(got) != 3 || got[0].Name != "BenchmarkA" || got[1].Name != "BenchmarkB" || got[2].Name != "BenchmarkC" {
		t.Fatalf("merged names %+v, want A, B, C in first-seen order", got)
	}
	a := got[0]
	if a.Iterations != 4 || a.Metrics["ns/op"] != 300 || a.Metrics["B/op"] != 16 || a.Metrics["allocs/op"] != 2 {
		t.Fatalf("BenchmarkA = %+v, want medians 4 iterations, 300 ns/op, 16 B/op, 2 allocs/op", a)
	}
	if b := got[1]; b.Iterations != 1 || b.Metrics["ns/op"] != 7 || b.Metrics["states"] != 5 {
		t.Fatalf("BenchmarkB = %+v, want the single run unchanged", b)
	}
	if c := got[2]; c.Metrics["ns/op"] != 15 {
		t.Fatalf("BenchmarkC ns/op = %v, want 15 (mean of the two middle runs)", c.Metrics["ns/op"])
	}
}

// TestRunRecordsMedianHostProbe checks that the document records the
// median time of every host probe run in the input, that the probe rows
// themselves are not archived, and that input without a probe records
// none.
func TestRunRecordsMedianHostProbe(t *testing.T) {
	parse := func(lines ...string) Report {
		t.Helper()
		var out bytes.Buffer
		if err := run(strings.NewReader(strings.Join(lines, "\n")), &out); err != nil {
			t.Fatal(err)
		}
		var rep Report
		if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
			t.Fatal(err)
		}
		return rep
	}
	rep := parse(
		"goos: linux",
		"pkg: repro",
		"BenchmarkHostProbe-2   4   5e8 ns/op   50 probe-ns/op",
		"BenchmarkA-2   1   300 ns/op",
		"PASS",
		"goos: linux",
		"pkg: repro/internal/mapqn",
		"BenchmarkHostProbe-2   4   5e8 ns/op   90 probe-ns/op",
		"BenchmarkB-2   1   7 ns/op",
		"goos: linux",
		"pkg: repro/internal/ctmc",
		"BenchmarkHostProbe-2   4   5e8 ns/op   60 probe-ns/op",
		"BenchmarkC-2   1   9 ns/op",
	)
	var names []string
	for _, b := range rep.Benchmarks {
		names = append(names, b.Name)
	}
	if want := []string{"BenchmarkA", "BenchmarkB", "BenchmarkC"}; !reflect.DeepEqual(names, want) {
		t.Fatalf("archived %v, want %v", names, want)
	}
	if rep.ProbeNsPerOp != 60 {
		t.Fatalf("probe_ns_per_op %v, want the median 60", rep.ProbeNsPerOp)
	}
	if rep := parse("BenchmarkA-2   1   300 ns/op"); rep.ProbeNsPerOp != 0 {
		t.Fatalf("probe_ns_per_op %v without a probe, want 0", rep.ProbeNsPerOp)
	}
}
