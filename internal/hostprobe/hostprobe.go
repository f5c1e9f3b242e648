// Package hostprobe is the fixed reference kernel the solver benchmarks
// time next to themselves. The host they run on drifts in speed by
// 30-60% over minutes, in step on every benchmark, so each `go test
// -bench` invocation of `make bench` and `make benchgate` also runs
// BenchmarkHostProbe (a one-line wrapper of Benchmark in each
// benchmarked package), cmd/benchjson records the median probe time of
// the whole run, and cmd/benchgate scales every fresh ns/op by baseline
// probe / fresh probe before it compares. The kernel never changes, so
// any change in its time is the host's.
package hostprobe

import (
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"
)

// Metric is the unit Benchmark reports the probe time in.
const Metric = "probe-ns/op"

// workers matches the benchmarks' two vCPUs; nodes sets one churn at
// about 35 ms; churns is how many churns one probe operation takes the
// median of.
const (
	workers = 2
	nodes   = 500_000
	churns  = 5
)

type node struct {
	next *node
	v    [6]float64
}

// churn allocates nodes 64-byte nodes on each of two goroutines, keeping
// the last few dozen of each reachable: an allocation and garbage
// collection churn, the work every benchmarked layer does besides its
// arithmetic.
func churn() {
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var head *node
			for i := 0; i < nodes; i++ {
				if i%64 == 0 {
					head = nil
				}
				head = &node{next: head}
				head.v[0] = float64(i)
			}
		}()
	}
	wg.Wait()
}

// Benchmark times the probe and reports it as Metric: each of its b.N
// operations is the median of five churns, each started after a
// garbage collection. So one operation reads the same in a -benchtime=1x
// run as in a one-second run, and neither a stray stall of the host nor
// the garbage an earlier benchmark left behind moves it.
func Benchmark(b *testing.B) {
	var total time.Duration
	times := make([]time.Duration, churns)
	for i := 0; i < b.N; i++ {
		for k := range times {
			runtime.GC()
			start := time.Now()
			churn()
			times[k] = time.Since(start)
		}
		slices.Sort(times)
		total += times[churns/2]
	}
	b.ReportMetric(float64(total.Nanoseconds())/float64(b.N), Metric)
}
