package bitmap

import (
	"fmt"
	"math/bits"
)

// DefaultGranularity is the summary granularity used by the Graph500
// reference code: one summary bit per 64-bit word of the base bitmap.
const DefaultGranularity = 64

// Summary is a coarse bitmap over a base bitmap: summary bit j is set iff
// any bit of granule j (base bits [j*g, (j+1)*g)) is set. Because the
// summary is g times smaller than the base, it enjoys far better cache
// locality; a zero summary bit proves the granule is zero without touching
// the base bitmap. Section III.C of the paper studies the granularity g.
type Summary struct {
	bits *Bitmap
	g    int64 // bits of base bitmap per summary bit; multiple of 64
	n    int64 // length of the base bitmap in bits
}

// NewSummary returns a zeroed summary for a base bitmap of n bits at
// granularity g. g must be a positive multiple of 64 so that granule
// boundaries are word-aligned (letting Rebuild work word-at-a-time, as
// the reference implementation does).
func NewSummary(n int64, g int64) *Summary {
	if g <= 0 || g%wordBits != 0 {
		panic(fmt.Sprintf("bitmap: summary granularity %d must be a positive multiple of %d", g, wordBits))
	}
	return &Summary{bits: New((n + g - 1) / g), g: g, n: n}
}

// WrapSummary builds a Summary view over an existing bitmap of one bit
// per granule (e.g. a node-shared region) for a base bitmap of n bits at
// granularity g. The bitmap must hold ceil(n/g) bits.
func WrapSummary(bits *Bitmap, g, n int64) *Summary {
	if g <= 0 || g%wordBits != 0 {
		panic(fmt.Sprintf("bitmap: summary granularity %d must be a positive multiple of %d", g, wordBits))
	}
	if want := (n + g - 1) / g; bits.Len() != want {
		panic(fmt.Sprintf("bitmap: summary bitmap has %d bits, want %d", bits.Len(), want))
	}
	return &Summary{bits: bits, g: g, n: n}
}

// Bits returns the summary's own bitmap (one bit per granule).
func (s *Summary) Bits() *Bitmap { return s.bits }

// Bytes returns the summary storage size in bytes.
func (s *Summary) Bytes() int64 { return s.bits.Bytes() }

// CoveredZero reports whether the granule containing base bit i is known
// to be all-zero (summary bit clear). The caller may skip reading the base
// bitmap when it returns true.
func (s *Summary) CoveredZero(i int64) bool {
	return !s.bits.Get(granule(i, s.g))
}

// granule returns the index of the granule of g covering base position
// i — summary bit or lane-summary word alike — by a shift rather than a
// 64-bit divide when g is a power of two (the bottom-up scans call it
// once per edge).
func granule(i, g int64) int64 {
	if g&(g-1) == 0 {
		return i >> uint(bits.TrailingZeros64(uint64(g)))
	}
	return i / g
}

// Rebuild recomputes the summary from the base bitmap. This is what the
// BFS does after each allgather of in_queue (or, for the segment a rank
// owns, before the summary allgather). It returns the number of summary
// words written, which the cost model charges as sequential work.
func (s *Summary) Rebuild(base *Bitmap) int64 {
	if base.Len() != s.n {
		panic("bitmap: Rebuild length mismatch")
	}
	return s.RebuildRange(base, 0, s.n)
}

// RebuildRange recomputes summary bits covering base bit range [lo, hi).
// lo and hi must be granule-aligned (hi may equal the base length).
func (s *Summary) RebuildRange(base *Bitmap, lo, hi int64) int64 {
	if lo%s.g != 0 || (hi != s.n && hi%s.g != 0) {
		panic("bitmap: RebuildRange bounds not granule-aligned")
	}
	wordsPerGranule := s.g / wordBits
	words := base.Words()
	firstGranule := lo / s.g
	lastGranule := (hi + s.g - 1) / s.g
	var written int64
	for gi := firstGranule; gi < lastGranule; gi++ {
		wLo := gi * wordsPerGranule
		wHi := wLo + wordsPerGranule
		if wHi > int64(len(words)) {
			wHi = int64(len(words))
		}
		var any uint64
		for w := wLo; w < wHi; w++ {
			any |= words[w]
		}
		if any != 0 {
			s.bits.Set(gi)
		} else {
			s.bits.Clear(gi)
		}
		written++
	}
	return written
}

// ZeroFraction returns the fraction of summary bits that are zero. This is
// the quantity that shrinks as granularity grows (Section III.C's
// "less zeros, less speedup" trade-off). No figure reports it yet; it is
// the measure a granularity figure would plot against g.
func (s *Summary) ZeroFraction() float64 {
	total := s.bits.Len()
	if total == 0 {
		return 1
	}
	return float64(total-s.bits.Count()) / float64(total)
}

// Consistent reports whether the summary exactly matches base: summary bit
// j is set iff granule j has a set bit. Used by property tests.
func (s *Summary) Consistent(base *Bitmap) bool {
	if base.Len() != s.n {
		return false
	}
	fresh := NewSummary(s.n, s.g)
	fresh.Rebuild(base)
	return fresh.bits.Equal(s.bits)
}
