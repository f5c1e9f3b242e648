package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// canonicalCases are hand-picked values whose canonical form the
// one-pass canonicalizer must render exactly as the reference does.
var canonicalCases = map[string]any{
	"html escapes in keys and values": map[string]any{
		"<b>&</b>": "a<b>&c", "\u2028": "line\u2028sep\u2029", "plain": "x",
	},
	"invalid utf-8 in go strings": map[string]any{
		"k\xff": "v\xfe\xfd", "ok": []string{"\xc3", "é", "é\u0000"},
	},
	"int64 above 2^53 and exponent floats": struct {
		Seed   int64     `json:"seed"`
		Min    int64     `json:"min"`
		Small  float64   `json:"small"`
		Large  float64   `json:"large"`
		Floats []float64 `json:"floats"`
	}{1<<60 + 7, math.MinInt64, 1e-21, 1e21, []float64{-0.0, 2.5e-300, 1.7976931348623157e308, 123456789.125}},
	"empty and nested": map[string]any{
		"o": map[string]any{}, "a": []any{}, "n": []any{[]any{map[string]any{"z": []any{}, "y": map[string]any{}}}},
		"nil": nil, "t": true, "f": false,
	},
	"unsorted map keys": map[string]int{"b": 2, "a": 1, "B": 3, "aa": 4, "": 5, "a\u0000": 6},
	"raw message": struct {
		Z   string          `json:"z"`
		Raw json.RawMessage `json:"raw"`
	}{"last", json.RawMessage(`{ "b" : [1.0, 2E+3, -0], "a" : "x<\/y", "b" : "dup", "a" : {"<>":"\u2028"} }`)},
	"raw invalid utf-8":  json.RawMessage("[\"\xff\", {\"\xfe\": 1}]"),
	"raw line separator": json.RawMessage("{\"\u2028\":\"<\u2029>\",\"\\u2028\":0}"),
	"scalars":            []any{1, "s", 0.1, uint64(math.MaxUint64), int8(-3)},
	"top-level string":   "just <a> string",
}

func assertCanonicalMatchesReference(t *testing.T, v any) {
	t.Helper()
	want, werr := canonicalJSONReference(v)
	got, gerr := CanonicalJSON(v)
	if (werr != nil) != (gerr != nil) {
		t.Fatalf("error %v, reference error %v", gerr, werr)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("canonical form differs from the reference:\n got  %q\n want %q", got, want)
	}
}

// TestCanonicalJSONMatchesReference pins the one-pass canonicalizer
// byte for byte against the former marshal, decode and re-encode path
// on the hand cases and every JSON file of the examples and testdata.
func TestCanonicalJSONMatchesReference(t *testing.T) {
	for name, v := range canonicalCases {
		t.Run(name, func(t *testing.T) { assertCanonicalMatchesReference(t, v) })
	}
	for _, path := range canonicalSeedFiles(t) {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(path, func(t *testing.T) {
			assertCanonicalMatchesReference(t, json.RawMessage(data))
			if sc, err := ParseScenario(data); err == nil {
				assertCanonicalMatchesReference(t, sc)
				assertCanonicalMatchesReference(t, sc.WithDefaults())
			}
			if s, err := ParseSuite(data); err == nil {
				assertCanonicalMatchesReference(t, s)
			}
		})
	}
}

// TestHashJSONMatchesCanonicalJSON checks that HashJSON hashes exactly
// the bytes CanonicalJSON returns, for every hand case.
func TestHashJSONMatchesCanonicalJSON(t *testing.T) {
	for name, v := range canonicalCases {
		canon, err := canonicalJSONReference(v)
		if err != nil {
			t.Fatal(err)
		}
		h, err := HashJSON(v)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(canon)
		if want := hex.EncodeToString(sum[:]); h != want {
			t.Errorf("%s: HashJSON %s, want %s", name, h, want)
		}
	}
}

// canonicalSeedFiles lists every JSON file under the repository's
// examples/ and testdata/ directories.
func canonicalSeedFiles(tb testing.TB) []string {
	tb.Helper()
	var paths []string
	for _, root := range []string{filepath.Join("..", "..", "examples"), filepath.Join("..", "..", "testdata")} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err == nil && !d.IsDir() && strings.HasSuffix(path, ".json") {
				paths = append(paths, path)
			}
			return err
		})
		if err != nil {
			tb.Fatal(err)
		}
	}
	if len(paths) == 0 {
		tb.Fatal("no JSON files under examples/ and testdata/")
	}
	return paths
}

// FuzzCanonicalJSON requires the one-pass canonicalizer to equal the
// reference byte for byte on each input taken four ways: as a
// json.RawMessage, decoded into a generic tree, as a scenario or suite
// when it parses as one, and as a Go string used for a map key and
// values (which reaches invalid UTF-8 and HTML characters in Go strings).
func FuzzCanonicalJSON(f *testing.F) {
	for _, path := range canonicalSeedFiles(f) {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	for _, v := range canonicalCases {
		data, err := json.Marshal(v)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte("<k>&\u2028\xff"))
	f.Add([]byte(`{"a":1,"a":{"b":2,"b":[]},"é":9007199254740993,"e":-1.5e-7}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		s := string(data)
		assertCanonicalMatchesReference(t, map[string]any{s: s, "list": []string{s, "x"}})
		if !json.Valid(data) {
			return
		}
		assertCanonicalMatchesReference(t, json.RawMessage(data))
		var tree any
		if json.Unmarshal(data, &tree) == nil {
			assertCanonicalMatchesReference(t, tree)
		}
		if sc, err := ParseScenario(data); err == nil {
			assertCanonicalMatchesReference(t, sc)
		}
		if suite, err := ParseSuite(data); err == nil {
			assertCanonicalMatchesReference(t, suite)
		}
	})
}

// TestHashJSONConcurrentCallers hashes from several goroutines at once:
// each call must take its own pooled canonicalizer.
func TestHashJSONConcurrentCallers(t *testing.T) {
	names := make([]string, 0, len(canonicalCases))
	want := map[string]string{}
	for name, v := range canonicalCases {
		h, err := HashJSON(v)
		if err != nil {
			t.Fatal(err)
		}
		names = append(names, name)
		want[name] = h
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < 50; k++ {
				name := names[(g+k)%len(names)]
				if h, err := HashJSON(canonicalCases[name]); err != nil || h != want[name] {
					t.Errorf("%s: HashJSON %s (%v) under concurrent callers, want %s", name, h, err, want[name])
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
