package core

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
)

// ParseIntList parses a comma-separated list of positive integers
// ("25,50,100"), the CLI syntax for population sweeps.
func ParseIntList(s string) ([]int, error) {
	parts := strings.Split(s, ",")
	out := make([]int, 0, len(parts))
	for _, p := range parts {
		p = strings.TrimSpace(p)
		if p == "" {
			continue
		}
		n, err := strconv.Atoi(p)
		if err != nil {
			return nil, fmt.Errorf("core: bad count %q: %w", p, err)
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		return nil, errors.New("core: empty list")
	}
	return out, nil
}

// ParseNameList parses a comma-separated list of names, trimming blanks
// ("front, app,db" -> [front app db]). An empty input yields nil.
func ParseNameList(s string) []string {
	if strings.TrimSpace(s) == "" {
		return nil
	}
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// ParseClassList parses a comma-separated workload class declaration,
// the CLI syntax for multiclass scenarios. Each entry is a class name
// with an optional population share: "name=weight" declares a mix
// weight (positive float), "name:count" a fixed per-class population
// (positive integer), and a bare "name" a default-weight class. Entries
// may mix the two forms; Scenario validation enforces that the result
// is feasible against the population sweep.
//
//	browsing=3,ordering=1    weighted 3:1 split
//	browsing:20,ordering:5   fixed per-class populations
//	browsing,ordering        equal weights
func ParseClassList(s string) ([]ClassSpec, error) {
	if strings.TrimSpace(s) == "" {
		return nil, errors.New("core: empty class list")
	}
	var out []ClassSpec
	for _, entry := range strings.Split(s, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		var spec ClassSpec
		switch {
		case strings.Contains(entry, "="):
			name, val, _ := strings.Cut(entry, "=")
			w, err := strconv.ParseFloat(strings.TrimSpace(val), 64)
			if err != nil {
				return nil, fmt.Errorf("core: class %q: bad weight %q", strings.TrimSpace(name), strings.TrimSpace(val))
			}
			if w <= 0 {
				return nil, fmt.Errorf("core: class %q: weight %v must be > 0", strings.TrimSpace(name), w)
			}
			spec = ClassSpec{Name: strings.TrimSpace(name), Weight: w}
		case strings.Contains(entry, ":"):
			name, val, _ := strings.Cut(entry, ":")
			n, err := strconv.Atoi(strings.TrimSpace(val))
			if err != nil {
				return nil, fmt.Errorf("core: class %q: bad population %q", strings.TrimSpace(name), strings.TrimSpace(val))
			}
			if n < 1 {
				return nil, fmt.Errorf("core: class %q: population %d must be >= 1", strings.TrimSpace(name), n)
			}
			spec = ClassSpec{Name: strings.TrimSpace(name), Population: n}
		default:
			spec = ClassSpec{Name: entry}
		}
		if spec.Name == "" {
			return nil, fmt.Errorf("core: class entry %q has no name", entry)
		}
		out = append(out, spec)
	}
	if len(out) == 0 {
		return nil, errors.New("core: empty class list")
	}
	return out, nil
}
