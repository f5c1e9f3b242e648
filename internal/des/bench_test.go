package des

import (
	"fmt"
	"testing"

	"repro/internal/hostprobe"
	"repro/internal/xrand"
)

// BenchmarkHostProbe times the host's speed next to this package's
// benchmarks (see internal/hostprobe).
func BenchmarkHostProbe(b *testing.B) {
	hostprobe.Benchmark(b)
}

// BenchmarkPSStation times one completion event at a processor-sharing
// station that holds n jobs: every finished job arrives again with a
// fresh H2 demand (mean 1 s, SCV 4), and the speed flips between 1 and
// 0.5 every 100 events, as contention epochs do in the TPC-W simulator.
// One op is one event.
func BenchmarkPSStation(b *testing.B) {
	for _, n := range []int{4, 64, 1024} {
		b.Run(fmt.Sprintf("jobs=%d", n), func(b *testing.B) {
			src := xrand.New(1)
			h2, err := xrand.NewHyper2(1, 4)
			if err != nil {
				b.Fatal(err)
			}
			s := NewSim()
			var st *PSStation
			events := 0
			st = NewPSStation(s, "ps", func(j *Job) {
				if events++; events%100 == 0 {
					st.SetSpeed(1.5 - st.Speed())
				}
				j.Demand = h2.Sample(src)
				st.Arrive(j)
			})
			jobs := make([]Job, n)
			for i := range jobs {
				jobs[i] = Job{ID: int64(i), Demand: h2.Sample(src)}
				st.Arrive(&jobs[i])
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Step()
			}
		})
	}
}
