package stats

import "fmt"

// Histogram is a fixed-bucket histogram over [Lo, Hi): n equal-width
// buckets plus an underflow and an overflow bucket — the shape of a
// Prometheus histogram family, which the obs exposition writes the
// barrier-wait distribution as.
type Histogram struct {
	Lo, Hi float64 // value range covered by the equal-width buckets
	Counts []int64 // len n: Counts[i] covers [Lo + i*w, Lo + (i+1)*w)
	Under  int64   // samples < Lo
	Over   int64   // samples >= Hi
	N      int64   // total samples, including under/overflow
	Sum    float64 // sum of all samples
}

// NewHistogram returns a histogram of n equal-width buckets over
// [lo, hi). It panics on a non-positive bucket count or an empty range:
// both would make every Add land in under/overflow.
func NewHistogram(lo, hi float64, n int) *Histogram {
	if n <= 0 {
		panic(fmt.Sprintf("stats: histogram bucket count %d, need > 0", n))
	}
	if !(hi > lo) {
		panic(fmt.Sprintf("stats: histogram range [%g, %g), need hi > lo", lo, hi))
	}
	return &Histogram{Lo: lo, Hi: hi, Counts: make([]int64, n)}
}

// width returns one bucket's value width.
func (h *Histogram) width() float64 {
	return (h.Hi - h.Lo) / float64(len(h.Counts))
}

// Add records one sample.
func (h *Histogram) Add(v float64) {
	h.N++
	h.Sum += v
	switch {
	case v < h.Lo:
		h.Under++
	case v >= h.Hi:
		h.Over++
	default:
		i := int((v - h.Lo) / h.width())
		if i >= len(h.Counts) { // float rounding at the top edge
			i = len(h.Counts) - 1
		}
		h.Counts[i]++
	}
}
