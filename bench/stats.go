package main

import (
	"math"
	"sort"
)

// percentile returns the p-th percentile (0..100) of xs by linear
// interpolation between closest ranks. xs need not be sorted; it is not
// modified. An empty sample has no percentile: NaN.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	if lo < 0 {
		return s[0]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// quartiles returns the first and third quartile as Python's
// statistics.quantiles(xs, n=4) gives them (the exclusive method), so
// -compare and the driver's acceptance script read the same spread.
// Fewer than two samples have no spread: both quartiles are the sample.
func quartiles(xs []float64) (q1, q3 float64) {
	if len(xs) == 0 {
		return math.NaN(), math.NaN()
	}
	if len(xs) == 1 {
		return xs[0], xs[0]
	}
	s := sortedCopy(xs)
	n := len(s)
	at := func(k int) float64 {
		j := k * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(k*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// harmonicMean is the Graph500 aggregate for rates.
func harmonicMean(xs []float64) float64 {
	var inv float64
	for _, x := range xs {
		inv += 1 / x
	}
	return float64(len(xs)) / inv
}

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// hasher folds 64-bit words into a digest (FNV-1a's constants applied
// per word, not per byte: it hashes gigabytes of parent arrays per run).
// It detects any changed word; it is not cryptographic.
type hasher uint64

func newHasher() hasher { return 14695981039346656037 }

func (h *hasher) u64(x uint64)  { *h = (*h ^ hasher(x)) * 1099511628211 }
func (h *hasher) i64(x int64)   { h.u64(uint64(x)) }
func (h *hasher) f64(x float64) { h.u64(math.Float64bits(x)) }
func (h *hasher) i64s(xs []int64) {
	for _, x := range xs {
		h.u64(uint64(x))
	}
}
