package burst

import (
	"testing"

	"repro/internal/hostprobe"
)

// BenchmarkHostProbe times the host's speed next to this package's
// benchmarks: every `make bench` and `make benchgate` invocation runs it,
// and cmd/benchgate compares ns/op at the baseline's host speed (see
// internal/hostprobe). Its file name sorts first, so it runs before any
// other benchmark of the binary, on a heap no benchmark has grown and
// with no goroutine a benchmark left running.
func BenchmarkHostProbe(b *testing.B) {
	hostprobe.Benchmark(b)
}
