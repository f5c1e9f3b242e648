package trace

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// ReadUtilizationCSV parses coarse monitoring data, one sampling period
// per line as "utilization,completions". Blank lines and lines starting
// with '#' are skipped; errors name the offending 1-based line.
func ReadUtilizationCSV(r io.Reader, period float64) (UtilizationSamples, error) {
	u := UtilizationSamples{PeriodSeconds: period}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<24)
	for lineNo := 1; sc.Scan(); lineNo++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		parts := strings.Split(line, ",")
		if len(parts) != 2 {
			return u, fmt.Errorf("line %d: want utilization,completions", lineNo)
		}
		util, err := strconv.ParseFloat(strings.TrimSpace(parts[0]), 64)
		if err != nil {
			return u, fmt.Errorf("line %d: bad utilization: %w", lineNo, err)
		}
		compl, err := strconv.ParseFloat(strings.TrimSpace(parts[1]), 64)
		if err != nil {
			return u, fmt.Errorf("line %d: bad completions: %w", lineNo, err)
		}
		u.Utilization = append(u.Utilization, util)
		u.Completions = append(u.Completions, compl)
	}
	return u, sc.Err()
}
