// Command benchjson converts `go test -bench` output on stdin into a
// JSON document on stdout, so benchmark runs can be archived and
// compared across commits (the Makefile's bench target writes
// BENCH_solver.json this way).
//
//	go test -run=NONE -bench='Solver' -benchmem ./... | benchjson > BENCH_solver.json
//
// Standard columns (ns/op, B/op, allocs/op) and custom b.ReportMetric
// columns ("58.52 X", "1984 states") both become fields of the
// benchmark's metrics map. A benchmark that appears more than once, as
// under `go test -count`, is recorded once, in first-seen order, with
// the median of each metric and of the iteration counts: one slow
// repeat on a noisy host then cannot move the archived number.
//
// The input may also hold runs of BenchmarkHostProbe, the fixed
// reference kernel of internal/hostprobe, which reports its time as
// "probe-ns/op". Its rows are not archived; the document records the
// median probe time over all of them as probe_ns_per_op, the host speed
// the run was measured at (cmd/benchgate scales by it).
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// hostProbe names the reference benchmark of internal/hostprobe, and
// probeMetric its time (hostprobe.Metric).
const (
	hostProbe   = "BenchmarkHostProbe"
	probeMetric = "probe-ns/op"
)

// Benchmark is one parsed result line.
type Benchmark struct {
	Name       string             `json:"name"`
	Iterations int64              `json:"iterations"`
	Metrics    map[string]float64 `json:"metrics"`
}

// Report is the emitted document.
type Report struct {
	GeneratedAt string      `json:"generated_at"`
	Goos        string      `json:"goos,omitempty"`
	Goarch      string      `json:"goarch,omitempty"`
	CPU         string      `json:"cpu,omitempty"`
	Benchmarks  []Benchmark `json:"benchmarks"`

	// ProbeNsPerOp is the median host probe time of the run, or 0 when
	// it ran no probe.
	ProbeNsPerOp float64 `json:"probe_ns_per_op,omitempty"`
}

func main() {
	if err := run(os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

func run(in io.Reader, out io.Writer) error {
	rep := Report{GeneratedAt: time.Now().UTC().Format(time.RFC3339)}
	var runs []Benchmark
	var probes []float64
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 1<<16), 1<<24)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos:"):
			rep.Goos = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
		case strings.HasPrefix(line, "goarch:"):
			rep.Goarch = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
		case strings.HasPrefix(line, "cpu:"):
			rep.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
		case strings.HasPrefix(line, "Benchmark"):
			b, ok := parseLine(line)
			switch {
			case !ok:
			case b.Name == hostProbe:
				probes = append(probes, b.Metrics[probeMetric])
			default:
				runs = append(runs, b)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if len(probes) > 0 {
		rep.ProbeNsPerOp = median(probes)
	}
	rep.Benchmarks = medians(runs)
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

// parseLine parses one result line of the form
//
//	BenchmarkName-8   3   123 ns/op   55.9 X   16 B/op   2 allocs/op
//
// into name, iteration count and a metrics map.
func parseLine(line string) (Benchmark, bool) {
	fields := strings.Fields(line)
	if len(fields) < 2 {
		return Benchmark{}, false
	}
	name := fields[0]
	if i := strings.LastIndex(name, "-"); i > 0 {
		// Strip the -GOMAXPROCS suffix when it is numeric.
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Benchmark{}, false
	}
	b := Benchmark{Name: name, Iterations: iters, Metrics: map[string]float64{}}
	// Remaining fields come in (value, unit) pairs.
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Benchmark{}, false
		}
		b.Metrics[fields[i+1]] = v
	}
	return b, true
}

// medians merges repeated runs of a benchmark into one record per name,
// in first-seen order, holding the median iteration count and the
// median of each metric over the runs that report it.
func medians(runs []Benchmark) []Benchmark {
	var names []string
	byName := map[string][]Benchmark{}
	for _, b := range runs {
		if _, ok := byName[b.Name]; !ok {
			names = append(names, b.Name)
		}
		byName[b.Name] = append(byName[b.Name], b)
	}
	out := make([]Benchmark, 0, len(names))
	for _, name := range names {
		reps := byName[name]
		var iters []float64
		values := map[string][]float64{}
		for _, b := range reps {
			iters = append(iters, float64(b.Iterations))
			for unit, v := range b.Metrics {
				values[unit] = append(values[unit], v)
			}
		}
		m := Benchmark{Name: name, Iterations: int64(median(iters)), Metrics: map[string]float64{}}
		for unit, vs := range values {
			m.Metrics[unit] = median(vs)
		}
		out = append(out, m)
	}
	return out
}

// median returns the middle value of vs, or the mean of the two middle
// values when their number is even; vs is sorted in place.
func median(vs []float64) float64 {
	sort.Float64s(vs)
	n := len(vs)
	if n%2 == 1 {
		return vs[n/2]
	}
	return (vs[n/2-1] + vs[n/2]) / 2
}
