package mapqn

import (
	"context"
	"testing"

	"repro/internal/markov"
)

// benchModel builds the K=3 benchmark fixture outside the timed loop.
func benchModel(b *testing.B, customers int) (NetworkModel, []*markov.MAP) {
	b.Helper()
	fits := make([]*markov.MAP, 0, 3)
	for _, p := range [][3]float64{{0.004, 40, 0.02}, {0.006, 120, 0.04}, {0.003, 25, 0.01}} {
		fit, err := markov.FitThreePoint(p[0], p[1], p[2], markov.FitOptions{})
		if err != nil {
			b.Fatal(err)
		}
		fits = append(fits, fit.MAP)
	}
	m := NetworkModel{
		Stations: []Station{
			{Name: "front", MAP: fits[0]},
			{Name: "app", MAP: fits[1]},
			{Name: "db", MAP: fits[2]},
		},
		ThinkTime: 0.5,
		Customers: customers,
	}
	return m, fits
}

// benchModel4 builds a K=4 fixture for the backend-comparison bench.
func benchModel4(b *testing.B, customers int) (NetworkModel, []*markov.MAP) {
	b.Helper()
	fits := make([]*markov.MAP, 0, 4)
	for _, p := range [][3]float64{{0.002, 4, 0.008}, {0.004, 10, 0.015}, {0.005, 8, 0.02}, {0.003, 25, 0.01}} {
		fit, err := markov.FitThreePoint(p[0], p[1], p[2], markov.FitOptions{})
		if err != nil {
			b.Fatal(err)
		}
		fits = append(fits, fit.MAP)
	}
	m := NetworkModel{
		Stations: []Station{
			{Name: "lb", MAP: fits[0]},
			{Name: "web", MAP: fits[1]},
			{Name: "app", MAP: fits[2]},
			{Name: "db", MAP: fits[3]},
		},
		ThinkTime: 0.5,
		Customers: customers,
	}
	return m, fits
}

// BenchmarkGeneratorBackends compares what each backend materializes to
// represent the same K=4 generator: the CSR path stores Q^T, the only
// form the solver reads (O(nnz) memory; its rows come from the same
// diagonal pass the matrix-free backend runs), while the matrix-free
// path only precomputes the diagonal (O(states)) and regenerates rows
// during each product. The B/op gap between the two sub-benchmarks is
// the memory ceiling the matrix-free backend lifts.
func BenchmarkGeneratorBackends(b *testing.B) {
	m, maps := benchModel4(b, 20) // 170,016 states
	g, err := newGenParams(m, maps)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("csr", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			q, err := newMatrixFreeGen(context.Background(), g)
			if err != nil {
				b.Fatal(err)
			}
			qt, err := q.assembleTranspose(context.Background())
			if err != nil {
				b.Fatal(err)
			}
			if i == 0 {
				b.ReportMetric(float64(qt.N), "states")
				b.ReportMetric(float64(qt.NNZ()), "nnz-resident")
			}
		}
	})
	b.Run("matrix-free", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			q, err := newMatrixFreeGen(context.Background(), g)
			if err != nil {
				b.Fatal(err)
			}
			if i == 0 {
				b.ReportMetric(float64(q.Dim()), "states")
				b.ReportMetric(float64(q.NNZ()), "nnz-virtual")
			}
		}
	})
}

// BenchmarkGeneratorAssembly isolates generator build cost from solver
// iterations: the direct in-order CSR assembly against the
// triplet-append-and-sort reference, on the same K=3, N=30 chain the
// solver benchmarks use (43,648 states).
func BenchmarkGeneratorAssembly(b *testing.B) {
	m, maps := benchModel(b, 30)
	b.Run("direct", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			gen, _, err := buildGeneratorN(context.Background(), m, maps)
			if err != nil {
				b.Fatal(err)
			}
			if i == 0 {
				b.ReportMetric(float64(gen.N), "states")
				b.ReportMetric(float64(gen.NNZ()), "nnz")
			}
		}
	})
	b.Run("triplet", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			gen, _, err := buildGeneratorNTriplet(m, maps)
			if err != nil {
				b.Fatal(err)
			}
			if i == 0 {
				b.ReportMetric(float64(gen.N), "states")
				b.ReportMetric(float64(gen.NNZ()), "nnz")
			}
		}
	})
}
