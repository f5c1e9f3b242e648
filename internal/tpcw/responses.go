package tpcw

import (
	"math"

	"repro/internal/stats"
)

// responseChunk is how many responses one chunk of a responseLog holds
// (32 KiB of float64s).
const responseChunk = 4096

// responseLog records end-to-end response times without growing a slice:
// the values go into fixed-size chunks, so recording one never copies the
// ones before it, and a running sum, accumulated in recording order from
// zero exactly as stats.Mean adds, gives the mean with the same bits.
type responseLog struct {
	chunks [][]float64
	n      int
	sum    float64
}

// add records one response.
func (l *responseLog) add(x float64) {
	i := l.n % responseChunk
	if i == 0 {
		l.chunks = append(l.chunks, make([]float64, responseChunk))
	}
	l.chunks[len(l.chunks)-1][i] = x
	l.n++
	l.sum += x
}

// mean is stats.Mean of the recorded responses: NaN when there are none.
func (l *responseLog) mean() float64 {
	if l.n == 0 {
		return math.NaN()
	}
	return l.sum / float64(l.n)
}

// percentile is stats.Percentile of the recorded responses in recording
// order; the chunks are copied once, into the selection's scratch slice.
func (l *responseLog) percentile(p float64) (float64, error) {
	return stats.PercentileOf(l.n, l.copyTo, p)
}

// copyTo writes the recorded responses, in order, into dst.
func (l *responseLog) copyTo(dst []float64) {
	for i, c := range l.chunks {
		copy(dst[i*responseChunk:], c[:min(responseChunk, l.n-i*responseChunk)])
	}
}
