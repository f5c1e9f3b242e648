package core

import (
	"bytes"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// resumeFixtures are the spool files under testdata/resume with the
// state a resumed run must read from each: a run killed mid-write (torn
// last line), a line corrupted on disk, a completed run's footer alone,
// and an empty spool.
var resumeFixtures = []struct {
	file      string
	done      []string
	failed    []string
	malformed int
}{
	{"truncated_last_line.jsonl", []string{"3f1a"}, []string{"9c2e"}, 1},
	{"corrupt_middle_line.jsonl", []string{"3f1a", "77d0"}, nil, 1},
	{"footer_only.jsonl", nil, nil, 0},
	{"empty.jsonl", nil, nil, 0},
}

func hashSet(hashes []string) map[string]bool {
	set := map[string]bool{}
	for _, h := range hashes {
		set[h] = true
	}
	return set
}

// TestReadJSONLResumeFixtures checks the resume state read from each
// fixture spool.
func TestReadJSONLResumeFixtures(t *testing.T) {
	for _, c := range resumeFixtures {
		st, err := ReadJSONLResume(filepath.Join("testdata", "resume", c.file))
		if err != nil {
			t.Fatalf("%s: %v", c.file, err)
		}
		if !reflect.DeepEqual(st.Done, hashSet(c.done)) || !reflect.DeepEqual(st.Failed, hashSet(c.failed)) || st.Malformed != c.malformed {
			t.Errorf("%s: done %v, failed %v, %d malformed; want %v, %v, %d",
				c.file, st.Done, st.Failed, st.Malformed, c.done, c.failed, c.malformed)
		}
	}
}

// FuzzReadJSONLResume writes each input to a spool file and reads it
// back for resuming. The reader must not panic; an error must be the
// file system's typed *fs.PathError; and a state must be consistent:
// no hash both done and failed, and every non-blank line either parsed
// into a row or counted as malformed.
func FuzzReadJSONLResume(f *testing.F) {
	for _, c := range resumeFixtures {
		data, err := os.ReadFile(filepath.Join("testdata", "resume", c.file))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "rows.jsonl")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		st, err := ReadJSONLResume(path)
		if err != nil {
			var pathErr *fs.PathError
			if !errors.As(err, &pathErr) {
				t.Fatalf("untyped error %T: %v", err, err)
			}
			return
		}
		for h := range st.Failed {
			if st.Done[h] {
				t.Fatalf("hash %q both done and failed", h)
			}
		}
		rows, err := ReadJSONLRows(path)
		if err != nil {
			t.Fatal(err)
		}
		lines := 0
		for _, line := range bytes.Split(data, []byte("\n")) {
			if len(bytes.TrimSpace(line)) > 0 {
				lines++
			}
		}
		if len(rows)+st.Malformed != lines {
			t.Fatalf("%d rows and %d malformed from %d non-blank lines", len(rows), st.Malformed, lines)
		}
	})
}
