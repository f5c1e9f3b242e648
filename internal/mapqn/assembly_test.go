package mapqn

import (
	"context"
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/ctmc"
	"repro/internal/markov"
	"repro/internal/matrix"
)

// buildGeneratorN assembles the generator Q of the K-station network by
// direct in-order CSR construction: the forward rowEmitter enumerates
// states in row order (population vectors in compRank order via
// nextComposition, phases as a mixed-radix odometer) and streams each
// row's insertion-sorted entries straight into the CSR arrays. The
// solver stores only Q^T (see assembleTranspose); Q is the reference
// the tests check the transpose rows, the triplet assembly and the
// hand-built two-station generator against.
func buildGeneratorN(ctx context.Context, m NetworkModel, maps []*markov.MAP) (*matrix.CSR, *stateSpaceN, error) {
	g, err := newGenParams(m, maps)
	if err != nil {
		return nil, nil, errStateOverflow(len(maps), m.Customers)
	}
	if g.size > csrDefaultMaxStates {
		return nil, nil, errStateLimit(g.k, g.n, g.size, csrDefaultMaxStates, ctmc.BackendCSR)
	}
	gen, err := g.assembleCSR(ctx)
	if err != nil {
		return nil, nil, err
	}
	return gen, g.space, nil
}

// assembleCSR streams every row through the forward emitter into the
// CSR arrays of Q.
func (g *genParams) assembleCSR(ctx context.Context) (*matrix.CSR, error) {
	rowPtr := make([]int, g.size+1)
	colIdx := make([]int, 0, g.size*g.est)
	vals := make([]float64, 0, g.size*g.est)
	e := newRowEmitter(g)
	for row := 0; row < g.size; row++ {
		if row&0xFFF == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		colIdx, vals = e.emitRow(colIdx, vals)
		rowPtr[row+1] = len(colIdx)
	}
	if e.row != g.size {
		panic(fmt.Sprintf("mapqn: assembled %d rows, state space has %d", e.row, g.size))
	}
	return matrix.NewCSRFromRows(g.size, rowPtr, colIdx, vals), nil
}

// buildGeneratorNTriplet is the pre-optimization reference assembly: two
// triplets per rate appended in enumeration order, merged and sorted by
// NewCSR, with a full decode per state. The direct in-order CSR assembly
// must reproduce it entry by entry.
func buildGeneratorNTriplet(m NetworkModel, maps []*markov.MAP) (*matrix.CSR, *stateSpaceN, error) {
	k := len(maps)
	n := m.Customers
	phases := make([]int, k)
	for i, mp := range maps {
		phases[i] = mp.Order()
	}
	space := newStateSpaceN(n, phases)
	size, err := space.sizeChecked()
	if err != nil {
		return nil, nil, err
	}
	if size > csrDefaultMaxStates {
		return nil, nil, fmt.Errorf("mapqn: reference builder: %d states exceed limit %d", size, csrDefaultMaxStates)
	}
	thinkRate := 0.0
	if m.ThinkTime > 0 {
		thinkRate = 1 / m.ThinkTime
	}
	phaseStride := make([]int, k)
	stride := 1
	for i := k - 1; i >= 0; i-- {
		phaseStride[i] = stride
		stride *= phases[i]
	}
	est := 2
	for _, p := range phases {
		est += 2 * p
	}
	entries := make([]matrix.Triplet, 0, size*est)
	add := func(from, to int, rate float64) {
		if rate <= 0 {
			return
		}
		entries = append(entries, matrix.Triplet{Row: from, Col: to, Val: rate})
		entries = append(entries, matrix.Triplet{Row: from, Col: from, Val: -rate})
	}

	pop := make([]int, k)
	phase := make([]int, k)
	for idx := 0; idx < size; idx++ {
		space.decode(idx, pop, phase)
		total := 0
		for _, v := range pop {
			total += v
		}
		thinking := n - total
		if thinking > 0 {
			pop[0]++
			to := space.index(pop, idx%space.phaseProd)
			pop[0]--
			if thinkRate > 0 {
				add(idx, to, float64(thinking)*thinkRate)
			} else {
				add(idx, to, float64(thinking)*1e9)
			}
		}
		for i := 0; i < k; i++ {
			mp := maps[i]
			j := phase[i]
			if pop[i] > 0 {
				pop[i]--
				if i+1 < k {
					pop[i+1]++
				}
				base := space.compRank(pop) * space.phaseProd
				if i+1 < k {
					pop[i+1]--
				}
				pop[i]++
				phaseBase := idx%space.phaseProd - j*phaseStride[i]
				for t := 0; t < phases[i]; t++ {
					add(idx, base+phaseBase+t*phaseStride[i], mp.D1.At(j, t))
					if t != j {
						add(idx, idx+(t-j)*phaseStride[i], mp.D0.At(j, t))
					}
				}
			} else if m.PhasesRunWhileIdle {
				for t := 0; t < phases[i]; t++ {
					if t != j {
						add(idx, idx+(t-j)*phaseStride[i], mp.D0.At(j, t)+mp.D1.At(j, t))
					}
				}
			}
		}
	}
	return matrix.NewCSR(size, entries), space, nil
}

// threeTierModel is the shared K=3 fixture of the assembly tests.
func threeTierModel(t *testing.T, customers int, idle bool) (NetworkModel, []*markov.MAP) {
	t.Helper()
	front := fitMAP(t, 0.004, 40, 0.02)
	app := fitMAP(t, 0.006, 120, 0.04)
	db := fitMAP(t, 0.003, 25, 0.01)
	m := NetworkModel{
		Stations: []Station{
			{Name: "front", MAP: front},
			{Name: "app", MAP: app},
			{Name: "db", MAP: db},
		},
		ThinkTime:          0.5,
		Customers:          customers,
		PhasesRunWhileIdle: idle,
	}
	return m, []*markov.MAP{front, app, db}
}

// TestDirectAssemblyMatchesTriplet checks the direct CSR assembly against
// the triplet-and-sort reference entry by entry on a K=3 model, under
// both idle-phase semantics. Both paths emit the same rates in the same
// canonical (row-sorted, duplicate-free) layout, so the arrays must match
// exactly — same columns, bit-identical off-diagonals; the diagonal is
// accumulated in a different order, hence the 1e-12 relative tolerance.
func TestDirectAssemblyMatchesTriplet(t *testing.T) {
	for _, idle := range []bool{false, true} {
		m, maps := threeTierModel(t, 7, idle)
		direct, _, err := buildGeneratorN(context.Background(), m, maps)
		if err != nil {
			t.Fatal(err)
		}
		ref, _, err := buildGeneratorNTriplet(m, maps)
		if err != nil {
			t.Fatal(err)
		}
		if direct.N != ref.N || direct.NNZ() != ref.NNZ() {
			t.Fatalf("idle=%v: dims %d/%d nnz %d/%d", idle, direct.N, ref.N, direct.NNZ(), ref.NNZ())
		}
		for r := 0; r <= direct.N; r++ {
			if direct.RowPtr[r] != ref.RowPtr[r] {
				t.Fatalf("idle=%v: rowPtr[%d] = %d, want %d", idle, r, direct.RowPtr[r], ref.RowPtr[r])
			}
		}
		for k := range ref.ColIdx {
			if direct.ColIdx[k] != ref.ColIdx[k] {
				t.Fatalf("idle=%v: colIdx[%d] = %d, want %d", idle, k, direct.ColIdx[k], ref.ColIdx[k])
			}
			got, want := direct.Vals[k], ref.Vals[k]
			if math.Abs(got-want) > 1e-12*math.Max(1, math.Abs(want)) {
				t.Fatalf("idle=%v: vals[%d] (col %d) = %v, want %v", idle, k, ref.ColIdx[k], got, want)
			}
		}
	}
}

// TestTransposeAssemblyMatchesTransposedGenerator checks the stored
// backend's generator: Q^T assembled row by row from the transpose
// emitter must equal the assembled Q transposed and split by
// ctmc.CompactTranspose, entry for entry, under both idle-phase
// semantics and with zero think time — with entry arrays sized exactly.
func TestTransposeAssemblyMatchesTransposedGenerator(t *testing.T) {
	for _, tc := range []struct {
		idle bool
		z    float64
	}{{false, 0.5}, {true, 0.5}, {false, 0}} {
		m, maps := threeTierModel(t, 7, tc.idle)
		m.ThinkTime = tc.z
		gen, _, err := buildGeneratorN(context.Background(), m, maps)
		if err != nil {
			t.Fatal(err)
		}
		want, err := ctmc.CompactTranspose(gen)
		if err != nil {
			t.Fatal(err)
		}
		g, err := newGenParams(m, maps)
		if err != nil {
			t.Fatal(err)
		}
		mf, err := newMatrixFreeGen(context.Background(), g)
		if err != nil {
			t.Fatal(err)
		}
		got, err := mf.assembleTranspose(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		name := fmt.Sprintf("idle=%v z=%v", tc.idle, tc.z)
		if got.Lo != 0 || got.Hi != gen.N || cap(got.Vals) != len(want.Vals) || cap(got.Cols) != len(want.Cols) || cap(got.Ptr) != gen.N+1 {
			t.Fatalf("%s: rows [%d,%d) of %d, caps %d/%d/%d for %d entries", name, got.Lo, got.Hi, gen.N,
				cap(got.Ptr), cap(got.Cols), cap(got.Vals), len(want.Vals))
		}
		if got.MaxAbsDiag() != gen.MaxAbsDiag() {
			t.Fatalf("%s: MaxAbsDiag %v, want %v", name, got.MaxAbsDiag(), gen.MaxAbsDiag())
		}
		sameRows(t, name, got, want)
	}
}

// sameRows fails unless block b holds rows [b.Lo, b.Hi) of the stored
// block want (spanning every row) entry for entry: the same diagonal,
// the same off-diagonal columns and values in the same order.
func sameRows(t *testing.T, name string, b, want *ctmc.RowBlock) {
	t.Helper()
	if len(b.Diag) != b.Hi-b.Lo || len(b.Ptr) != b.Hi-b.Lo+1 {
		t.Fatalf("%s: block [%d,%d) has %d diagonals and %d row pointers", name, b.Lo, b.Hi, len(b.Diag), len(b.Ptr))
	}
	for r := range b.Diag {
		i := b.Lo + r
		if b.Diag[r] != want.Diag[i] {
			t.Fatalf("%s: row %d diagonal %v, want %v", name, i, b.Diag[r], want.Diag[i])
		}
		lo, hi := b.Ptr[r], b.Ptr[r+1]
		wlo, whi := want.Ptr[i], want.Ptr[i+1]
		if hi-lo != whi-wlo {
			t.Fatalf("%s: row %d has %d off-diagonals, want %d", name, i, hi-lo, whi-wlo)
		}
		for a := int32(0); a < hi-lo; a++ {
			if b.Cols[lo+a] != want.Cols[wlo+a] || b.Vals[lo+a] != want.Vals[wlo+a] {
				t.Fatalf("%s: row %d entry %d = (%d,%v), want (%d,%v)", name, i, a,
					b.Cols[lo+a], b.Vals[lo+a], want.Cols[wlo+a], want.Vals[wlo+a])
			}
		}
	}
}

// TestDirectAssemblyZeroThinkTime covers the Z=0 instantaneous-think
// branch of both builders.
func TestDirectAssemblyZeroThinkTime(t *testing.T) {
	m, maps := threeTierModel(t, 3, false)
	m.ThinkTime = 0
	direct, _, err := buildGeneratorN(context.Background(), m, maps)
	if err != nil {
		t.Fatal(err)
	}
	ref, _, err := buildGeneratorNTriplet(m, maps)
	if err != nil {
		t.Fatal(err)
	}
	if direct.NNZ() != ref.NNZ() {
		t.Fatalf("nnz %d != %d", direct.NNZ(), ref.NNZ())
	}
	for k := range ref.ColIdx {
		if direct.ColIdx[k] != ref.ColIdx[k] {
			t.Fatalf("colIdx[%d] = %d, want %d", k, direct.ColIdx[k], ref.ColIdx[k])
		}
		if math.Abs(direct.Vals[k]-ref.Vals[k]) > 1e-9*math.Max(1, math.Abs(ref.Vals[k])) {
			t.Fatalf("vals[%d] = %v, want %v", k, direct.Vals[k], ref.Vals[k])
		}
	}
}

// TestCompositionWalkerAgreesWithRank is the property test tying the
// three composition codecs together for K in 1..5 and N in 0..12: the
// incremental walker visits every population vector exactly once, in
// compRank order, and compUnrank inverts compRank at every step.
func TestCompositionWalkerAgreesWithRank(t *testing.T) {
	for k := 1; k <= 5; k++ {
		for n := 0; n <= 12; n++ {
			phases := make([]int, k)
			for i := range phases {
				phases[i] = 1 + (i+n)%3
			}
			space := newStateSpaceN(n, phases)
			pop := make([]int, k)
			decoded := make([]int, k)
			rank := 0
			for {
				if got := space.compRank(pop); got != rank {
					t.Fatalf("K=%d N=%d: compRank(%v) = %d, walker says %d", k, n, pop, got, rank)
				}
				space.compUnrank(rank, decoded)
				for i := range pop {
					if decoded[i] != pop[i] {
						t.Fatalf("K=%d N=%d rank %d: compUnrank = %v, walker at %v", k, n, rank, decoded, pop)
					}
				}
				total := 0
				for _, v := range pop {
					total += v
				}
				if total > n {
					t.Fatalf("K=%d N=%d: walker produced over-budget vector %v", k, n, pop)
				}
				rank++
				if !space.nextComposition(pop) {
					break
				}
			}
			if rank != space.comps {
				t.Fatalf("K=%d N=%d: walker visited %d compositions, space has %d", k, n, rank, space.comps)
			}
		}
	}
}

// TestSizeCheckedOverflow exercises the overflow guard: deep chains whose
// composition count or phase product wraps int must report an error, not
// a bogus size that slips past the maxStates limit.
func TestSizeCheckedOverflow(t *testing.T) {
	// C(1030, 30) ~ 2.1e57 saturates the binomial table.
	deep := newStateSpaceN(1000, make30Phases(2))
	if _, err := deep.sizeChecked(); err == nil {
		t.Error("expected overflow error for C(1030,30)-sized composition count")
	}
	// Composition count fine, phase product overflows.
	wide := newStateSpaceN(2, []int{1 << 31, 1 << 31, 1 << 31})
	if _, err := wide.sizeChecked(); err == nil {
		t.Error("expected overflow error for phase product")
	}
	// Sanity: a normal space still reports its size.
	ok := newStateSpaceN(10, []int{2, 2})
	size, err := ok.sizeChecked()
	if err != nil || size != ok.size() {
		t.Errorf("sizeChecked = %d, %v; want %d, nil", size, err, ok.size())
	}
}

func make30Phases(v int) []int {
	p := make([]int, 30)
	for i := range p {
		p[i] = v
	}
	return p
}

// TestBuildGeneratorOverflowReturnsBoundsError checks the solver-facing
// error path: an overflowing state space must produce the "use
// NetworkBounds" error rather than a panic or a wrapped-size build.
func TestBuildGeneratorOverflowReturnsBoundsError(t *testing.T) {
	mp := fitMAP(t, 0.004, 40, 0.02)
	stations := make([]Station, 24)
	for i := range stations {
		stations[i] = Station{MAP: mp}
	}
	m := NetworkModel{Stations: stations, ThinkTime: 0.5, Customers: 500}
	_, err := SolveNetwork(m, ctmc.Options{})
	if err == nil {
		t.Fatal("expected state-space error for 24 stations at N=500")
	}
	if !strings.Contains(err.Error(), "NetworkBounds") {
		t.Fatalf("error %q does not point at NetworkBounds", err)
	}
}

// TestWarmSweepMatchesColdSolves is the warm-start correctness contract:
// every population of a warm-started sweep must match an independent
// cold solve — ascending or not — to 1e-9 relative throughput. Both
// solves stop anywhere inside the residual-tolerance ball around the
// true fixed point, so their difference is bounded by the solve
// tolerance, not zero; the comparison runs at Tol = 1e-12, where the
// solution error sits well below the 1e-9 bar (at the 1e-10 default the
// agreement is ~1e-7, exactly tracking the tolerance).
func TestWarmSweepMatchesColdSolves(t *testing.T) {
	front := fitMAP(t, 0.004, 40, 0.02)
	db := fitMAP(t, 0.003, 25, 0.01)
	stations := []Station{
		{Name: "front", MAP: front},
		{Name: "db", MAP: db},
	}
	opts := ctmc.Options{Tol: 1e-12}
	populations := []int{2, 6, 12, 20, 35, 30, 9}
	warm, err := SolveNetworkSweep(stations, 0.5, populations, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i, n := range populations {
		cold, err := SolveNetwork(NetworkModel{Stations: stations, ThinkTime: 0.5, Customers: n}, opts)
		if err != nil {
			t.Fatal(err)
		}
		rel := func(name string, tol, got, want float64) {
			if math.Abs(got-want) > tol*math.Max(1, math.Abs(want)) {
				t.Errorf("N=%d: warm %s = %v, cold %v", n, name, got, want)
			}
		}
		rel("X", 1e-9, warm[i].Throughput, cold.Throughput)
		rel("R", 1e-9, warm[i].ResponseTime, cold.ResponseTime)
		for s := range cold.Utils {
			rel("U", 1e-8, warm[i].Utils[s], cold.Utils[s])
			rel("Q", 1e-8, warm[i].QueueLens[s], cold.QueueLens[s])
		}
	}
}

// TestEmbedPiPreservesMass checks the state-space embedding directly:
// growing keeps every probability at its relabelled index; shrinking
// drops exactly the over-budget states.
func TestEmbedPiPreservesMass(t *testing.T) {
	phases := []int{2, 2}
	small := newStateSpaceN(3, phases)
	big := newStateSpaceN(5, phases)
	pi := make([]float64, small.size())
	for i := range pi {
		pi[i] = float64(i + 1)
	}
	up := embedPi(small, big, pi)
	if up == nil {
		t.Fatal("embedPi returned nil for a growing embed")
	}
	pop := make([]int, 2)
	phase := make([]int, 2)
	sum := 0.0
	for idx, v := range up {
		if v == 0 {
			continue
		}
		sum += v
		big.decode(idx, pop, phase)
		ph := idx % big.phaseProd
		if want := pi[small.index(pop, ph)]; v != want {
			t.Fatalf("embedded mass at %v/%d = %v, want %v", pop, ph, v, want)
		}
	}
	wantSum := 0.0
	for _, v := range pi {
		wantSum += v
	}
	if math.Abs(sum-wantSum) > 1e-12 {
		t.Fatalf("grow embed mass %v, want %v", sum, wantSum)
	}

	down := embedPi(big, small, up)
	if down == nil {
		t.Fatal("embedPi returned nil for a shrinking embed")
	}
	for i, v := range down {
		if v != pi[i] {
			t.Fatalf("shrink embed[%d] = %v, want %v", i, v, pi[i])
		}
	}

	if got := embedPi(small, newStateSpaceN(3, []int{2, 3}), pi); got != nil {
		t.Error("embedPi across different phase layouts must return nil")
	}
}
