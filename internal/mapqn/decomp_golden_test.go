package mapqn

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"testing"
)

// decompBenchStations are the K=4 and K=6 networks of the root
// package's BenchmarkSolveDecomp: bursty MAP(2) tiers at N=200, far past
// what the exact CTMC can solve. dbI and appI set the database and
// application tiers' index of dispersion (25 and 120 in the benchmark).
func decompBenchStations(t testing.TB, k int, dbI, appI float64) []Station {
	lb := Station{Name: "lb", MAP: fitMAP(t, 0.002, 4, 0.008)}
	front := Station{Name: "front", MAP: fitMAP(t, 0.004, 40, 0.02)}
	app := Station{Name: "app", MAP: fitMAP(t, 0.006, appI, 0.04)}
	db := Station{Name: "db", MAP: fitMAP(t, 0.003, dbI, 0.01)}
	if k == 4 {
		return []Station{lb, front, app, db}
	}
	cache := Station{Name: "cache", MAP: fitMAP(t, 0.0025, 10, 0.009)}
	search := Station{Name: "search", MAP: fitMAP(t, 0.005, 60, 0.03)}
	return []Station{lb, front, cache, app, search, db}
}

// hexFloats renders values as exact hexadecimal floats, so a golden
// diff shows any change in the last bit.
func hexFloats(vs []float64) string {
	var b bytes.Buffer
	for i, v := range vs {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(strconv.FormatFloat(v, 'x', -1, 64))
	}
	return b.String()
}

// writeDecompMetrics appends one solve's pinned fields to b.
func writeDecompMetrics(b *bytes.Buffer, met NetworkMetrics) {
	fmt.Fprintf(b, "states %d\n", met.States)
	fmt.Fprintf(b, "throughput %s\n", hexFloats([]float64{met.Throughput}))
	fmt.Fprintf(b, "utils %s\n", hexFloats(met.Utils))
	fmt.Fprintf(b, "queue_lens %s\n", hexFloats(met.QueueLens))
	for i, dist := range met.QueueDists {
		fmt.Fprintf(b, "queue_dist[%d] %s\n", i, hexFloats(dist))
	}
	fmt.Fprintf(b, "fixed_point_residual %s\n", hexFloats([]float64{met.FixedPointResidual}))
	fmt.Fprintf(b, "solver_iterations %d\n", met.SolverIterations)
}

// decompGoldenCases produces the pinned text of every decomp golden:
// the exact K=1 chain, K=2 with free-running idle phases, the two
// BenchmarkSolveDecomp networks, two warm-started sweeps (the second the
// K=6, db I=400 network the former damped update could not converge at
// N=200), and the exact wording of the two ways the fixed point fails
// to converge: too few iterations, and a tolerance below round-off.
func decompGoldenCases(t *testing.T) map[string][]byte {
	out := make(map[string][]byte)
	solve := func(name string, m NetworkModel, opts DecompOptions) {
		met, err := SolveNetworkDecomp(m, opts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var b bytes.Buffer
		writeDecompMetrics(&b, met)
		out[name] = b.Bytes()
	}
	failure := func(name string, err error) {
		if err == nil {
			t.Fatalf("%s: solve converged, want a non-convergence error", name)
		}
		out[name] = []byte(err.Error() + "\n")
	}

	solve("k1", NetworkModel{
		Stations:  []Station{{Name: "db", MAP: fitMAP(t, 0.005, 120, 0.03)}},
		ThinkTime: 0.4,
		Customers: 60,
	}, DecompOptions{})
	solve("k2_idle_run", NetworkModel{
		Stations: []Station{
			{Name: "front", MAP: fitMAP(t, 0.0068, 4, 0.021)},
			{Name: "db", MAP: fitMAP(t, 0.0046, 40, 0.019)},
		},
		ThinkTime:          0.5,
		Customers:          50,
		PhasesRunWhileIdle: true,
	}, DecompOptions{})
	for _, k := range []int{4, 6} {
		solve(fmt.Sprintf("k%d_n200", k), NetworkModel{
			Stations:  decompBenchStations(t, k, 25, 120),
			ThinkTime: 0.5,
			Customers: 200,
		}, DecompOptions{})
	}

	populations := []int{50, 100, 150, 200}
	sweep := func(name string, stations []Station) {
		mets, err := SolveNetworkDecompSweep(stations, 0.5, populations, DecompOptions{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var b bytes.Buffer
		for i, met := range mets {
			fmt.Fprintf(&b, "population %d\n", populations[i])
			writeDecompMetrics(&b, met)
		}
		out[name] = b.Bytes()
	}
	sweep("sweep_k4", decompBenchStations(t, 4, 25, 120))
	sweep("sweep_k6_db400", decompBenchStations(t, 6, 400, 120))

	_, err := SolveNetworkDecompSweep(decompBenchStations(t, 6, 400, 120), 0.5, populations, DecompOptions{MaxIter: 5})
	failure("no_convergence_k6", err)
	_, err = SolveNetworkDecomp(NetworkModel{
		Stations:  decompBenchStations(t, 4, 25, 120),
		ThinkTime: 0.5,
		Customers: 200,
	}, DecompOptions{Tol: 1e-300, MaxIter: 20})
	failure("no_convergence_tol", err)
	return out
}

// TestDecompGoldens pins the decomposition solver bit for bit against
// testdata/decomp: hex-float throughput, utilizations, queue lengths and
// distributions, the fixed-point residual and iteration count, and the
// non-convergence error text. Optimizations of the fixed point must
// perform the same floating-point operations in the same order, so they
// leave every golden unchanged.
func TestDecompGoldens(t *testing.T) {
	for name, got := range decompGoldenCases(t) {
		want, err := os.ReadFile(filepath.Join("testdata", "decomp", name+".golden"))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: decomp output changed\n got: %s\nwant: %s", name, firstDiff(got, want), firstDiff(want, got))
		}
	}
}

// firstDiff returns the first line of a that differs from b.
func firstDiff(a, b []byte) string {
	al, bl := bytes.Split(a, []byte("\n")), bytes.Split(b, []byte("\n"))
	for i, line := range al {
		if i >= len(bl) || !bytes.Equal(line, bl[i]) {
			return string(line)
		}
	}
	return "(prefix)"
}
