package main

import (
	"io"
	"testing"
)

func report(ns, bytes, allocs float64) *Report {
	return &Report{Benchmarks: []Benchmark{{
		Name:    "BenchmarkSolveDecomp/K=6/N=200",
		Metrics: map[string]float64{"ns/op": ns, "B/op": bytes, "allocs/op": allocs},
	}}}
}

// TestGateAllocsPerOp checks allocs/op is gated under the memory
// threshold: a benchmark whose time and bytes hold steady but whose
// allocation count grows past the threshold fails the gate.
func TestGateAllocsPerOp(t *testing.T) {
	base := report(1e8, 128192, 170)
	for _, c := range []struct {
		name   string
		fresh  *Report
		failed int
	}{
		{"steady", report(1e8, 128192, 170), 0},
		{"allocs within threshold", report(1e8, 128192, 200), 0},
		{"allocs regressed", report(1e8, 128192, 300), 1},
		{"time and allocs regressed", report(2e8, 128192, 300), 2},
	} {
		failed, compared := gate(io.Discard, base, c.fresh, 0.25, 0.25)
		if failed != c.failed || compared != 3 {
			t.Errorf("%s: failed %d of %d, want %d of 3", c.name, failed, compared, c.failed)
		}
	}
	if failed, _ := gate(io.Discard, base, report(1e8, 128192, 300), 0.25, 1); failed != 0 {
		t.Errorf("allocs/op gated under -threshold instead of -mem-threshold: %d failures", failed)
	}
}

// TestGateScalesNsPerOpByHostProbe checks that a fresh ns/op is compared
// at the baseline's host speed when both documents carry a host probe,
// that B/op and allocs/op are not scaled, and that a document without a
// probe on either side is compared as measured.
func TestGateScalesNsPerOpByHostProbe(t *testing.T) {
	withProbe := func(r *Report, probe float64) *Report {
		r.ProbeNsPerOp = probe
		return r
	}
	base := withProbe(report(1e8, 1000, 10), 5e7)
	for _, c := range []struct {
		name   string
		fresh  *Report
		failed int
	}{
		{"slow host, same code", withProbe(report(1.8e8, 1000, 10), 1e8), 0},
		{"fast host hides no regression", withProbe(report(1e8, 1000, 10), 2.5e7), 1},
		{"same host, regressed", withProbe(report(1.3e8, 1000, 10), 5e7), 1},
		{"slow host does not excuse bytes or allocations", withProbe(report(1.8e8, 2000, 20), 1e8), 2},
		{"fresh run without a probe", report(1.8e8, 1000, 10), 1},
	} {
		if failed, compared := gate(io.Discard, base, c.fresh, 0.25, 0.25); failed != c.failed || compared != 3 {
			t.Errorf("%s: failed %d of %d, want %d of 3", c.name, failed, compared, c.failed)
		}
	}
	if failed, _ := gate(io.Discard, report(1e8, 1000, 10), withProbe(report(1.8e8, 1000, 10), 1e8), 0.25, 0.25); failed != 1 {
		t.Errorf("baseline without a probe: %d failures, want 1", failed)
	}
}
