package mapqn

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"repro/internal/markov"
)

// chainFixtures names the generators that internal/matrix's dense-LU
// reference test and internal/ctmc's dense-solve benchmark read from
// ../matrix/testdata/chains: the K=2 what-if networks (front I=4, db
// I in {1, 4, 400}, Z=0.5) at N in {1, 4, 10}, and N=14 at db I=400,
// the largest K=2 chain under the 512-state dense cutoff.
var chainFixtures = []struct {
	dbI float64
	n   int
}{
	{1, 1}, {1, 4}, {1, 10},
	{4, 1}, {4, 4}, {4, 10},
	{400, 1}, {400, 4}, {400, 10}, {400, 14},
}

func chainFixtureName(dbI float64, n int) string {
	return fmt.Sprintf("k2_db%g_n%d.txt", dbI, n)
}

// chainFixtureText renders the generator Q of one what-if network as
// text: its order, its distinct entry values as hex floats, then one
// "row col value-index" line per stored entry, in CSR order.
func chainFixtureText(t *testing.T, dbI float64, n int) []byte {
	front := fitMAP(t, 0.0068, 4, 0.0068*3.1)
	db := fitMAP(t, 0.0046, dbI, 0.0046*4.1)
	m := NetworkModel{Stations: []Station{{Name: "front", MAP: front}, {Name: "db", MAP: db}}, ThinkTime: 0.5, Customers: n}
	maps := make([]*markov.MAP, len(m.Stations))
	for i, st := range m.Stations {
		em, err := st.effectiveMAP()
		if err != nil {
			t.Fatal(err)
		}
		maps[i] = em
	}
	q, _, err := buildGeneratorN(context.Background(), m, maps)
	if err != nil {
		t.Fatal(err)
	}
	var values []string
	index := map[string]int{}
	var entries bytes.Buffer
	for i := 0; i < q.N; i++ {
		for k := q.RowPtr[i]; k < q.RowPtr[i+1]; k++ {
			v := strconv.FormatFloat(q.Vals[k], 'x', -1, 64)
			id, ok := index[v]
			if !ok {
				id = len(values)
				index[v] = id
				values = append(values, v)
			}
			fmt.Fprintf(&entries, "%d %d %d\n", i, q.ColIdx[k], id)
		}
	}
	var b bytes.Buffer
	fmt.Fprintf(&b, "# generator Q of the K=2 network front I=4, db I=%g, Z=0.5, N=%d (TestChainFixtures, internal/mapqn)\n", dbI, n)
	fmt.Fprintf(&b, "states %d\nvalues %d\n", q.N, len(values))
	for _, v := range values {
		b.WriteString(v + "\n")
	}
	b.Write(entries.Bytes())
	return b.Bytes()
}

// TestChainFixtures keeps the chain fixtures of the dense-LU tests equal
// to the generators this package builds. A deliberate change to the
// generator rewrites each file with chainFixtureText's output.
func TestChainFixtures(t *testing.T) {
	for _, c := range chainFixtures {
		name := chainFixtureName(c.dbI, c.n)
		want, err := os.ReadFile(filepath.Join("..", "matrix", "testdata", "chains", name))
		if err != nil {
			t.Fatal(err)
		}
		if got := chainFixtureText(t, c.dbI, c.n); !bytes.Equal(got, want) {
			t.Errorf("%s: generator changed\n got: %s\nwant: %s", name, firstDiff(got, want), firstDiff(want, got))
		}
	}
}
