package main

import (
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"time"
)

// The host probe. This benchmark runs on a small VM whose speed drifts
// with the load of other guests on the same machine: by 20–45% over
// minutes, in step on every workload, with no steal time visible in the
// guest. A median over more passes of one run cannot remove that, since
// the whole run is fast or slow together. So a run also times a fixed
// reference kernel, the probe, before set-up and then every probeEvery
// between passes and after the last pass, and reports its timings scaled
// to the speed at which the probe takes probeRefMs:
//
//	reported = measured × probeRefMs / (median probe time of the run)
//
// The probe is this file's own code and runs in a child process, so
// nothing the program does changes its time except through the host: not
// the program's code, heap or garbage collector, and not its goroutines.
// It is an allocation churn on 2 goroutines, as the workloads use 2
// workers: every workload allocates heavily, and of four kernels tried
// (a sparse matrix-vector iteration the size of grid-exact's largest
// chain, this churn, random updates over a buffer larger than the
// last-level cache, first touches of fresh pages), the churn followed the
// workloads' pass times best, on all four workloads (see README.md).

// probeRefMs is the probe's reference time: about its median on the VM
// this benchmark was built on. It only sets the scale of the reported
// timings.
const probeRefMs = 400.0

// probeEvery is how long a run goes between probes: a probe runs before
// a pass whenever this much time has passed since the last one.
const probeEvery = 2 * time.Second

// probeNodes is how many nodes each of the probe's goroutines allocates.
const probeNodes = 5_000_000

// hostProbe collects a run's probe times.
type hostProbe struct {
	exe   string
	times []float64 // ms
	last  time.Time
}

func newHostProbe() (*hostProbe, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	return &hostProbe{exe: exe}, nil
}

// take runs the probe once in a child process and waits for it to end.
func (h *hostProbe) take() error {
	out, err := exec.Command(h.exe, "-probe").Output()
	if err != nil {
		return fmt.Errorf("host probe: %w", err)
	}
	ms, err := strconv.ParseFloat(strings.TrimSpace(string(out)), 64)
	if err != nil {
		return fmt.Errorf("host probe: %w", err)
	}
	h.times = append(h.times, ms)
	h.last = time.Now()
	return nil
}

// due reports whether probeEvery has passed since the last probe.
func (h *hostProbe) due() bool { return time.Since(h.last) >= probeEvery }

// scale is the factor that turns a time measured in this run into one at
// the reference speed.
func (h *hostProbe) scale() float64 { return probeRefMs / median(h.times) }

func (h *hostProbe) String() string {
	each := make([]string, len(h.times))
	for i, v := range h.times {
		each[i] = fmt.Sprintf("%.1f", v)
	}
	return fmt.Sprintf("host probe ms: %s\n  host probe: median %.1f ms over %d probes; timings scaled by %.4f",
		strings.Join(each, " "), median(h.times), len(h.times), h.scale())
}

// runProbeKernel is the child process's work: the churn on 2 goroutines,
// timed, printed in ms.
func runProbeKernel() {
	const workers = 2
	start := time.Now()
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			churn(probeNodes)
		}()
	}
	wg.Wait()
	fmt.Printf("%.3f\n", float64(time.Since(start).Nanoseconds())/1e6)
}

type churnNode struct {
	next *churnNode
	v    [6]float64
}

// churn allocates n 64-byte nodes on the heap, keeping the last few dozen
// reachable.
func churn(n int) {
	var head *churnNode
	for i := 0; i < n; i++ {
		if i%64 == 0 {
			head = nil
		}
		head = &churnNode{next: head}
		head.v[0] = float64(i)
	}
}
