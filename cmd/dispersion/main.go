// Command dispersion estimates the index of dispersion of a service
// process, either from a raw trace of service times (one per line) or
// from coarse monitoring data (CSV lines "utilization,completions" per
// sampling period) using the paper's Figure 2 algorithm.
//
// Usage:
//
//	dispersion -mode trace  < service_times.txt
//	dispersion -mode monitor -period 5 < monitor.csv
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"repro/internal/inference"
	"repro/internal/trace"
)

func main() {
	if err := run(os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "dispersion:", err)
		os.Exit(1)
	}
}

func run(in io.Reader, out io.Writer) error {
	mode := flag.String("mode", "trace", "input format: trace (one service time per line) or monitor (CSV utilization,completions)")
	period := flag.Float64("period", 5, "sampling period in seconds (monitor mode)")
	tol := flag.Float64("tol", 0.20, "convergence tolerance of the Figure 2 algorithm")
	flag.Parse()

	switch *mode {
	case "trace":
		tr, err := readTrace(in)
		if err != nil {
			return err
		}
		i, err := tr.IndexOfDispersion(trace.DispersionOptions{Tol: *tol})
		if err != nil {
			return err
		}
		p95, err := tr.Percentile(95)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "samples=%d mean=%.6g scv=%.4g I=%.4g p95=%.6g\n",
			len(tr), tr.Mean(), tr.SCV(), i, p95)
		return nil
	case "monitor":
		samples, err := trace.ReadUtilizationCSV(in, *period)
		if err != nil {
			return err
		}
		c, err := inference.Characterize(samples, inference.Options{
			Dispersion: trace.DispersionOptions{Tol: *tol},
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "periods=%d meanU=%.3f S=%.6g I=%.4g p95=%.6g converged=%v window=%.0fs\n",
			c.Samples, c.MeanUtilization, c.MeanServiceTime, c.IndexOfDispersion,
			c.P95ServiceTime, c.Converged, c.WindowSeconds)
		return nil
	default:
		return fmt.Errorf("unknown mode %q", *mode)
	}
}

func readTrace(in io.Reader) (trace.T, error) {
	var tr trace.T
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 1<<16), 1<<24)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		v, err := strconv.ParseFloat(line, 64)
		if err != nil {
			return nil, fmt.Errorf("bad sample %q: %w", line, err)
		}
		tr = append(tr, v)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return tr, nil
}
