package tpcw

import (
	"math"
	"testing"

	"repro/internal/stats"
	"repro/internal/xrand"
)

// TestResponseLogMatchesFlatSlice holds the chunked response log to
// stats.Mean and stats.Percentile on the same values in one flat slice,
// bit for bit, at sizes around the chunk boundaries. The values repeat
// (ties) and include +0 and -0, whose order the percentile's sort
// fallback must see exactly as the flat slice holds it.
func TestResponseLogMatchesFlatSlice(t *testing.T) {
	src := xrand.New(17)
	for _, n := range []int{0, 1, responseChunk - 1, responseChunk, responseChunk + 1, 3*responseChunk + 7} {
		var log responseLog
		flat := make([]float64, 0, n)
		for i := 0; i < n; i++ {
			var x float64
			switch src.Intn(6) {
			case 0:
				x = 0
			case 1:
				x = math.Copysign(0, -1)
			case 2:
				x = 0.25 // a tie
			default:
				x = src.Exp(0.3)
			}
			log.add(x)
			flat = append(flat, x)
		}
		if log.n != len(flat) {
			t.Fatalf("n=%d: log holds %d responses", n, log.n)
		}
		if got, want := log.mean(), stats.Mean(flat); math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("n=%d: mean %x, want %x", n, got, want)
		}
		for _, p := range []float64{95, 50, 100} {
			got, gotErr := log.percentile(p)
			want, wantErr := stats.Percentile(flat, p)
			if (gotErr == nil) != (wantErr == nil) || math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("n=%d: p%v = %x (%v), want %x (%v)", n, p, got, gotErr, want, wantErr)
			}
		}
	}
}
