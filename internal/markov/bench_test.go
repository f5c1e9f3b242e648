package markov

import (
	"testing"

	"repro/internal/hostprobe"
)

// BenchmarkHostProbe times the host's speed next to this package's
// benchmarks (see internal/hostprobe).
func BenchmarkHostProbe(b *testing.B) {
	hostprobe.Benchmark(b)
}

// BenchmarkFitThreePoint times one MAP(2) fit from the three measured
// numbers of a what-if query's database tier (mean 4.6 ms, p95 4.1x the
// mean), moderately (I=4) and very (I=400) bursty.
func BenchmarkFitThreePoint(b *testing.B) {
	for _, c := range []struct {
		name string
		i    float64
	}{{"I=4", 4}, {"I=400", 400}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for n := 0; n < b.N; n++ {
				if _, err := FitThreePoint(0.0046, c.i, 0.0046*4.1, FitOptions{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
