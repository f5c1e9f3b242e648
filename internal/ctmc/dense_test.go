package ctmc

import (
	"math"
	"sync"
	"testing"

	"repro/internal/matrix"
)

// steadyStateDenseFresh is the dense solve without a reused workspace:
// a fresh n×n system per solve, factored by matrix.Factor.
func steadyStateDenseFresh(qt *RowBlock) ([]float64, error) {
	n := qt.Dim()
	a := matrix.NewDense(n, n)
	for i, d := range qt.Diag {
		a.Set(i, i, d)
		for k := qt.Ptr[i]; k < qt.Ptr[i+1]; k++ {
			a.Set(i, int(qt.Cols[k]), qt.Vals[k])
		}
	}
	for j := 0; j < n; j++ {
		a.Set(n-1, j, 1)
	}
	b := make([]float64, n)
	b[n-1] = 1
	lu, err := matrix.Factor(a)
	if err != nil {
		return nil, err
	}
	pi, err := lu.Solve(b)
	if err != nil {
		return nil, err
	}
	cleanNegatives(pi)
	normalize(pi)
	return pi, nil
}

// denseFixtures are K=2 network chains of orders 8 to 480, listed so a
// workspace grown by a large chain then serves smaller ones.
var denseFixtures = []string{
	"k2_db400_n14.txt", "k2_db1_n1.txt", "k2_db400_n10.txt", "k2_db4_n4.txt",
	"k2_db1_n10.txt", "k2_db400_n1.txt", "k2_db4_n10.txt", "k2_db400_n4.txt",
}

// TestSteadyStateDenseWorkspaceMatchesFresh pins the reused workspace
// bit for bit against a fresh system per solve, over chains of mixed
// orders solved one after another, twice over.
func TestSteadyStateDenseWorkspaceMatchesFresh(t *testing.T) {
	for round := 0; round < 2; round++ {
		for _, name := range denseFixtures {
			qt, err := CompactTranspose(loadGenerator(t, name))
			if err != nil {
				t.Fatal(err)
			}
			want, err := steadyStateDenseFresh(qt)
			if err != nil {
				t.Fatal(err)
			}
			got, err := steadyStateDense(qt)
			if err != nil {
				t.Fatal(err)
			}
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("%s: pi[%d] = %x, fresh system gives %x", name, i, got[i], want[i])
				}
			}
		}
	}
}

// TestSteadyStateDenseRepeatAllocatesOnlyResult checks that a repeat
// solve of the same order reuses its workspace: its one allocation is
// the returned vector.
func TestSteadyStateDenseRepeatAllocatesOnlyResult(t *testing.T) {
	qt, err := CompactTranspose(loadGenerator(t, "k2_db400_n10.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := steadyStateDense(qt); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := steadyStateDense(qt); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 1 {
		t.Fatalf("repeat dense solve allocates %v times, want 1 (the result)", allocs)
	}
}

// TestSteadyStateDenseConcurrentSolves runs dense solves of mixed
// orders from several goroutines at once: each must take its own idle
// workspace and return the fresh system's vector bit for bit.
func TestSteadyStateDenseConcurrentSolves(t *testing.T) {
	ops := make([]*RowBlock, len(denseFixtures))
	wants := make([][]float64, len(denseFixtures))
	for i, name := range denseFixtures {
		qt, err := CompactTranspose(loadGenerator(t, name))
		if err != nil {
			t.Fatal(err)
		}
		ops[i] = qt
		if wants[i], err = steadyStateDenseFresh(qt); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < 2*len(ops); k++ {
				i := (g + k) % len(ops)
				got, err := steadyStateDense(ops[i])
				if err != nil {
					t.Error(err)
					return
				}
				for j := range got {
					if math.Float64bits(got[j]) != math.Float64bits(wants[i][j]) {
						t.Errorf("%s: pi[%d] differs under concurrent solves", denseFixtures[i], j)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}
