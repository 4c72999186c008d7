// Package bitmap implements the dense bit vectors at the heart of the
// bottom-up BFS phase: in_queue, out_queue and their summary bitmaps.
//
// A Bitmap is a fixed-length vector of bits backed by []uint64 words. The
// bottom-up computation phase checks in_queue bits for essentially every
// edge it examines, so these operations are kept allocation-free and
// branch-light. A Summary is a second, smaller bitmap in which one bit
// covers a fixed-size granule of the underlying bitmap (64 bits in the
// Graph500 reference code); a zero summary bit proves the whole granule is
// zero and short-circuits the check. Section III.C of the paper tunes this
// granularity.
package bitmap

import (
	"fmt"
	"math/bits"
)

const wordBits = 64

// Bitmap is a fixed-size bit vector. The zero value is an empty bitmap of
// length 0; use New to allocate one of a given length.
type Bitmap struct {
	n     int64
	words []uint64
}

// New returns a zeroed bitmap holding n bits. It panics if n is negative.
func New(n int64) *Bitmap {
	if n < 0 {
		panic("bitmap: negative length")
	}
	return &Bitmap{n: n, words: make([]uint64, (n+wordBits-1)/wordBits)}
}

// FromWords wraps an existing word slice as a bitmap of n bits. The slice
// is used directly, not copied: this is how per-node shared regions are
// viewed as bitmaps by several simulated processes at once.
func FromWords(words []uint64, n int64) *Bitmap {
	if need := (n + wordBits - 1) / wordBits; int64(len(words)) < need {
		panic(fmt.Sprintf("bitmap: %d words cannot hold %d bits", len(words), n))
	}
	return &Bitmap{n: n, words: words}
}

// Len returns the number of bits in the bitmap.
func (b *Bitmap) Len() int64 { return b.n }

// Words returns the backing word slice. Callers must not resize it.
func (b *Bitmap) Words() []uint64 { return b.words }

// Bytes returns the size of the backing storage in bytes. This is the
// quantity transferred when the bitmap is allgathered.
func (b *Bitmap) Bytes() int64 { return int64(len(b.words)) * 8 }

// Get reports whether bit i is set.
func (b *Bitmap) Get(i int64) bool {
	return b.words[i/wordBits]&(1<<uint(i%wordBits)) != 0
}

// Set sets bit i. It is not safe for concurrent writers to the same word.
func (b *Bitmap) Set(i int64) {
	b.words[i/wordBits] |= 1 << uint(i%wordBits)
}

// Clear clears bit i.
func (b *Bitmap) Clear(i int64) {
	b.words[i/wordBits] &^= 1 << uint(i%wordBits)
}

// Reset clears all bits.
func (b *Bitmap) Reset() {
	for i := range b.words {
		b.words[i] = 0
	}
}

// Count returns the number of set bits.
func (b *Bitmap) Count() int64 {
	var c int64
	for _, w := range b.words {
		c += int64(bits.OnesCount64(w))
	}
	return c
}

// OrFrom ors src into b. The bitmaps must have the same length.
func (b *Bitmap) OrFrom(src *Bitmap) {
	if b.n != src.n {
		panic("bitmap: OrFrom length mismatch")
	}
	for i, w := range src.words {
		b.words[i] |= w
	}
}

// Equal reports whether b and o hold identical bits.
func (b *Bitmap) Equal(o *Bitmap) bool {
	if b.n != o.n {
		return false
	}
	for i, w := range b.words {
		if w != o.words[i] {
			return false
		}
	}
	return true
}

// ForEachSet calls fn with the index of every set bit in ascending order.
func (b *Bitmap) ForEachSet(fn func(i int64)) {
	for wi, w := range b.words {
		for w != 0 {
			bit := bits.TrailingZeros64(w)
			i := int64(wi)*wordBits + int64(bit)
			if i >= b.n {
				return
			}
			fn(i)
			w &= w - 1
		}
	}
}

// AppendSetBits appends the indices of the set bits in [loBit, hiBit)
// to dst in ascending order and returns the extended slice. dst is
// caller-owned scratch — pass dst[:0] to reuse it, making steady-state
// extraction allocation-free. Scanning is word-at-a-time with
// TrailingZeros64, masking the partial first and last words.
func (b *Bitmap) AppendSetBits(dst []int64, loBit, hiBit int64) []int64 {
	if loBit < 0 {
		loBit = 0
	}
	if hiBit > b.n {
		hiBit = b.n
	}
	if loBit >= hiBit {
		return dst
	}
	loW := loBit / wordBits
	hiW := (hiBit + wordBits - 1) / wordBits
	for wi := loW; wi < hiW; wi++ {
		w := b.words[wi]
		base := wi * wordBits
		if wi == loW {
			if off := loBit - base; off > 0 {
				w &= ^uint64(0) << uint(off)
			}
		}
		if rem := hiBit - base; rem < wordBits {
			w &= (uint64(1) << uint(rem)) - 1
		}
		for w != 0 {
			dst = append(dst, base+int64(bits.TrailingZeros64(w)))
			w &= w - 1
		}
	}
	return dst
}
