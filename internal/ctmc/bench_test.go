package ctmc

import (
	"bufio"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/hostprobe"
	"repro/internal/matrix"
)

// BenchmarkHostProbe times the host's speed next to this package's
// benchmarks (see internal/hostprobe).
func BenchmarkHostProbe(b *testing.B) {
	hostprobe.Benchmark(b)
}

// loadGenerator reads a generator fixture of ../matrix/testdata/chains
// (written by internal/mapqn's TestChainFixtures) as a CSR matrix.
func loadGenerator(tb testing.TB, name string) *matrix.CSR {
	tb.Helper()
	f, err := os.Open(filepath.Join("..", "matrix", "testdata", "chains", name))
	if err != nil {
		tb.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	var n int
	var values []float64
	var entries []matrix.Triplet
	nValues := -1
	for sc.Scan() {
		line := sc.Text()
		fields := strings.Fields(line)
		switch {
		case strings.HasPrefix(line, "#"):
		case fields[0] == "states":
			n, _ = strconv.Atoi(fields[1])
		case fields[0] == "values":
			nValues, _ = strconv.Atoi(fields[1])
		case len(values) < nValues:
			v, err := strconv.ParseFloat(fields[0], 64)
			if err != nil {
				tb.Fatal(err)
			}
			values = append(values, v)
		default:
			i, _ := strconv.Atoi(fields[0])
			j, _ := strconv.Atoi(fields[1])
			k, _ := strconv.Atoi(fields[2])
			entries = append(entries, matrix.Triplet{Row: i, Col: j, Val: values[k]})
		}
	}
	if err := sc.Err(); err != nil {
		tb.Fatal(err)
	}
	return matrix.NewCSR(n, entries)
}

// BenchmarkSteadyStateDense times the dense direct solve alone, from the
// stored Q^T to the normalized stationary vector, on the K=2 what-if
// network chain (264 states, db I=400, N=10) and on the largest K=2
// chain under the 512-state dense cutoff (480 states, N=14).
func BenchmarkSteadyStateDense(b *testing.B) {
	for _, c := range []struct{ name, file string }{
		{"K=2/N=10", "k2_db400_n10.txt"},
		{"K=2/N=14", "k2_db400_n14.txt"},
	} {
		b.Run(c.name, func(b *testing.B) {
			qt, err := CompactTranspose(loadGenerator(b, c.file))
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ReportMetric(float64(qt.Dim()), "states")
			for i := 0; i < b.N; i++ {
				if _, err := steadyStateDense(qt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
