// Package stats provides the small statistical helpers the Graph500
// evaluation methodology requires: harmonic means for TEPS aggregation,
// plus arithmetic summaries used in experiment reports.
package stats

import (
	"math"
	"sort"
)

// HarmonicMean returns the harmonic mean of xs. Graph500 reports the
// harmonic mean of per-root TEPS because TEPS is a rate. It returns 0 for
// an empty slice and 0 if any element is non-positive (a failed iteration
// dominates the harmonic mean toward zero, matching the spec's intent).
func HarmonicMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		if x <= 0 {
			return 0
		}
		sum += 1 / x
	}
	return float64(len(xs)) / sum
}

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Min returns the minimum of xs. NOTE: for an empty slice it returns
// +Inf (the identity of min), not 0 — callers that can see empty inputs
// must guard before formatting or comparing the result.
func Min(xs []float64) float64 {
	m := math.Inf(1)
	for _, x := range xs {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the maximum of xs, or -Inf for an empty slice.
func Max(xs []float64) float64 {
	m := math.Inf(-1)
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

// Quantile returns the q-quantile (0 <= q <= 1) of xs using linear
// interpolation between order statistics. It returns 0 for an empty slice.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if q <= 0 {
		return s[0]
	}
	if q >= 1 {
		return s[len(s)-1]
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s[lo]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

// Percentile returns the p-th percentile (0 <= p <= 100) of xs, the
// convention metrics reports use (p50/p95/max barrier wait). It is
// Quantile at q = p/100: linear interpolation between order statistics,
// 0 for an empty slice; p is clamped to [0, 100].
func Percentile(xs []float64, p float64) float64 {
	return Quantile(xs, p/100)
}
