package core

import (
	"path/filepath"
	"testing"

	"repro/internal/hostprobe"
)

// BenchmarkHostProbe times the host's speed next to this package's
// benchmarks (see internal/hostprobe).
func BenchmarkHostProbe(b *testing.B) {
	hostprobe.Benchmark(b)
}

// BenchmarkHashJSON times the content address of the two inputs the
// capacity-planning service hashes on every what-if query: a small K=2
// scenario shaped like a what-if catalog entry (defaults materialized,
// as Scenario.Hash hashes it) and the examples/suite grid.
func BenchmarkHashJSON(b *testing.B) {
	sc, err := ParseScenario([]byte(`{
		"name": "whatif-07", "think_time": 0.5, "populations": [2, 4, 6, 8, 10],
		"tiers": [
			{"name": "front", "mean": 0.00713, "index_of_dispersion": 4, "p95": 0.0221},
			{"name": "db", "mean": 0.00452, "index_of_dispersion": 400, "p95": 0.0185}
		],
		"solvers": ["map", "mva", "bounds"]
	}`))
	if err != nil {
		b.Fatal(err)
	}
	suite, err := LoadSuite(filepath.Join("..", "..", "examples", "suite", "suite.json"))
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name string
		v    any
	}{{"scenario", sc.WithDefaults()}, {"suite", suite}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := HashJSON(c.v); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
