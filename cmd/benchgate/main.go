// Command benchgate compares a fresh benchmark run against the committed
// baseline (BENCH_solver.json) and fails when any shared benchmark's
// ns/op, B/op or allocs/op regressed beyond the allowed factor — the
// repository's performance-regression gate (`make benchgate`). Gating
// allocations alongside time catches a class of regressions ns/op hides
// on fast paths: an accidental per-iteration allocation that the
// benchmark's noise floor absorbs but that dominates under production GC
// pressure. allocs/op shares -mem-threshold with B/op; it pins
// allocation-free loops whose few remaining allocations are too small
// for B/op to notice a new one.
//
//	benchgate -baseline BENCH_solver.json -fresh fresh.json
//	benchgate -baseline BENCH_solver.json -fresh fresh.json -threshold 0.25 -mem-threshold 0.25
//
// Both inputs are benchjson documents. Benchmarks present in only one
// file are reported but never fail the gate (new benchmarks land before
// their baseline row does; retired ones disappear from fresh runs), and
// benchmarks whose baseline lacks a metric — or reports it as zero, as
// allocation-free code does — are skipped for that metric.
// Improvements are reported alongside regressions so the gate's output
// doubles as a quick perf diff.
//
// The host drifts in speed by 30-60% over minutes, which no repetition
// of a row absorbs, so ns/op is compared at a common host speed: when
// both documents carry the median time of the host probe over their run
// (probe_ns_per_op, see internal/hostprobe and cmd/benchjson), every
// fresh ns/op is first scaled by baseline probe / fresh probe. B/op and
// allocs/op do not depend on host speed and are compared as measured.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
)

// Benchmark mirrors cmd/benchjson's per-line record.
type Benchmark struct {
	Name       string             `json:"name"`
	Iterations int64              `json:"iterations"`
	Metrics    map[string]float64 `json:"metrics"`
}

// Report mirrors cmd/benchjson's document.
type Report struct {
	GeneratedAt  string      `json:"generated_at"`
	ProbeNsPerOp float64     `json:"probe_ns_per_op,omitempty"`
	Benchmarks   []Benchmark `json:"benchmarks"`
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
		os.Exit(1)
	}
}

func run() error {
	baselinePath := flag.String("baseline", "BENCH_solver.json", "committed benchjson baseline")
	freshPath := flag.String("fresh", "", "benchjson document of the fresh run to gate")
	threshold := flag.Float64("threshold", 0.25, "allowed fractional ns/op regression (0.25 = fail beyond +25%)")
	memThreshold := flag.Float64("mem-threshold", 0.25, "allowed fractional B/op and allocs/op regression (0.25 = fail beyond +25%)")
	flag.Parse()

	if *freshPath == "" {
		return fmt.Errorf("-fresh is required (a benchjson document of the run to gate)")
	}
	if *threshold < 0 {
		return fmt.Errorf("-threshold %v must be >= 0", *threshold)
	}
	if *memThreshold < 0 {
		return fmt.Errorf("-mem-threshold %v must be >= 0", *memThreshold)
	}
	baseline, err := load(*baselinePath)
	if err != nil {
		return err
	}
	fresh, err := load(*freshPath)
	if err != nil {
		return err
	}

	failed, compared := gate(os.Stdout, baseline, fresh, *threshold, *memThreshold)
	if failed > 0 {
		return fmt.Errorf("%d benchmark metric(s) regressed beyond the allowed factor (+%.0f%% ns/op, +%.0f%% B/op and allocs/op)",
			failed, 100**threshold, 100**memThreshold)
	}
	fmt.Printf("benchgate: %d benchmark metric(s) within +%.0f%% ns/op / +%.0f%% B/op and allocs/op of baseline\n",
		compared, 100**threshold, 100**memThreshold)
	return nil
}

// gate compares every metric the baseline shares with the fresh run —
// ns/op, scaled to the baseline's host speed, under threshold, B/op and
// allocs/op under memThreshold — writes one line per comparison to w,
// and returns how many regressed and how many were compared.
func gate(w io.Writer, baseline, fresh *Report, threshold, memThreshold float64) (failed, compared int) {
	host := 1.0
	if bp, fp := baseline.ProbeNsPerOp, fresh.ProbeNsPerOp; bp > 0 && fp > 0 {
		host = bp / fp
		fmt.Fprintf(w, "host probe %.1f ms in the baseline, %.1f ms fresh: fresh ns/op scaled by %.3f\n", bp/1e6, fp/1e6, host)
	}
	for _, g := range []struct {
		metric    string
		threshold float64
	}{
		{"ns/op", threshold},
		{"B/op", memThreshold},
		{"allocs/op", memThreshold},
	} {
		base := indexMetric(baseline, g.metric)
		cur := indexMetric(fresh, g.metric)
		names := make([]string, 0, len(base))
		for name := range base {
			names = append(names, name)
		}
		sort.Strings(names)

		for _, name := range names {
			b := base[name]
			f, ok := cur[name]
			if !ok {
				fmt.Fprintf(w, "  ~ %-48s not in fresh run (skipped)\n", name)
				continue
			}
			compared++
			if g.metric == "ns/op" {
				f *= host
			}
			ratio := f / b
			switch {
			case ratio > 1+g.threshold:
				failed++
				fmt.Fprintf(w, "FAIL %-48s %12.0f -> %12.0f %s (%+.1f%% > +%.0f%% allowed)\n",
					name, b, f, g.metric, 100*(ratio-1), 100*g.threshold)
			default:
				fmt.Fprintf(w, "  ok %-48s %12.0f -> %12.0f %s (%+.1f%%)\n",
					name, b, f, g.metric, 100*(ratio-1))
			}
		}
		if g.metric == "ns/op" {
			for name := range cur {
				if _, ok := base[name]; !ok {
					fmt.Fprintf(w, "  + %-48s new benchmark (no baseline; skipped)\n", name)
				}
			}
		}
	}
	return failed, compared
}

// load reads and decodes one benchjson document.
func load(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep Report
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(rep.Benchmarks) == 0 {
		return nil, fmt.Errorf("%s: no benchmarks", path)
	}
	return &rep, nil
}

// indexMetric maps benchmark name to one metric's value, skipping rows
// without it and rows reporting zero (benchjson archives
// custom-metric-only rows too, and a zero baseline — e.g. B/op of
// allocation-free code — admits no meaningful regression ratio).
func indexMetric(rep *Report, metric string) map[string]float64 {
	idx := make(map[string]float64, len(rep.Benchmarks))
	for _, b := range rep.Benchmarks {
		if v, ok := b.Metrics[metric]; ok && v > 0 {
			idx[b.Name] = v
		}
	}
	return idx
}
