package burst

import (
	"testing"

	"repro/internal/core"
)

// FuzzParseScenario checks the scenario input boundary: parsing never
// panics, and an accepted scenario re-serializes to JSON that parses
// back to the same content hash. Validating and hashing the defaulted
// scenario must not panic either. The seed corpus under
// testdata/fuzz/FuzzParseScenario holds the committed example scenarios
// and the scenarios of the report goldens.
func FuzzParseScenario(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		sc, err := ParseScenario(data)
		if err != nil {
			return
		}
		out, err := sc.JSON()
		if err != nil {
			t.Fatalf("accepted scenario does not serialize: %v", err)
		}
		back, err := ParseScenario(out)
		if err != nil {
			t.Fatalf("serialized scenario does not re-parse: %v\n%s", err, out)
		}
		want, err := core.HashJSON(sc)
		if err != nil {
			t.Fatal(err)
		}
		got, err := core.HashJSON(back)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("round trip changed the hash: %s != %s\n%s", got, want, out)
		}
		if sc.WithDefaults().Validate() == nil {
			if _, err := sc.Hash(); err != nil {
				t.Fatalf("valid scenario does not hash: %v", err)
			}
		}
	})
}

// maxFuzzCells caps the grids FuzzParseSuite expands, so a short input
// cannot make one fuzz run build tens of thousands of cells.
const maxFuzzCells = 64

// FuzzParseSuite checks the suite input boundary with the properties of
// FuzzParseScenario, and expands every accepted suite whose grid is
// small enough: expansion validates and hashes each cell and must
// reject a bad grid with an error, not a panic. The seed corpus under
// testdata/fuzz/FuzzParseSuite holds the committed example suites and
// grids over the workload and class axes.
func FuzzParseSuite(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := ParseSuite(data)
		if err != nil {
			return
		}
		out, err := s.JSON()
		if err != nil {
			t.Fatalf("accepted suite does not serialize: %v", err)
		}
		back, err := ParseSuite(out)
		if err != nil {
			t.Fatalf("serialized suite does not re-parse: %v\n%s", err, out)
		}
		want, err := core.HashJSON(s)
		if err != nil {
			t.Fatal(err)
		}
		got, err := core.HashJSON(back)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("round trip changed the hash: %s != %s\n%s", got, want, out)
		}
		if s.Grid.Cells() <= maxFuzzCells {
			_, _ = s.Expand() // only a panic fails: bad grids are rejected by error
		}
	})
}
