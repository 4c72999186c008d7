package bitmap

import "fmt"

// LaneBits is the lane capacity of a plane word: one 64-bit word per
// vertex carries one bit per concurrent BFS source (MS-BFS lane).
const LaneBits = 64

// LanePlane is the multi-source generalization of Bitmap: where a Bitmap
// stores one bit per vertex, a LanePlane stores one 64-bit lane word per
// vertex — bit l of word v is vertex v's membership in lane l's set. One
// adjacency scan can then test or update all 64 lanes of a batched
// traversal with single word operations, which is the MS-BFS idea
// (Then et al.): the frontier and visited sets of up to 64 roots share
// every sweep and every collective.
//
// A LanePlane's word slice is laid out exactly like a Bitmap's — a flat
// []uint64 a collective Layout can segment — so the existing allgather
// variants and wire codecs apply verbatim (a plane segment is just a
// bitmap of 64·n bits whose density is the mean lane density).
type LanePlane struct {
	n     int64 // vertices
	words []uint64
}

// NewLanePlane returns a zeroed plane over n vertices.
func NewLanePlane(n int64) *LanePlane {
	if n < 0 {
		panic("bitmap: negative lane-plane length")
	}
	return &LanePlane{n: n, words: make([]uint64, n)}
}

// PlaneFromWords wraps an existing word slice (e.g. a node-shared region)
// as a plane over n vertices. The slice is used directly, not copied.
func PlaneFromWords(words []uint64, n int64) *LanePlane {
	if int64(len(words)) < n {
		panic(fmt.Sprintf("bitmap: %d words cannot hold a %d-vertex lane-plane", len(words), n))
	}
	return &LanePlane{n: n, words: words}
}

// Len returns the number of vertices.
func (p *LanePlane) Len() int64 { return p.n }

// Words returns the backing word slice (one word per vertex). Callers
// must not resize it.
func (p *LanePlane) Words() []uint64 { return p.words }

// Word returns vertex v's lane word.
func (p *LanePlane) Word(v int64) uint64 { return p.words[v] }

// Or sets the lanes of mask at vertex v.
func (p *LanePlane) Or(v int64, mask uint64) { p.words[v] |= mask }

// LaneSummary is the multi-source counterpart of Summary: one lane word
// per granule of g vertices, the OR of the granule's plane words. Because
// the OR preserves per-lane structure, a zero bit l in a summary word
// proves lane l's frontier has no vertex in the granule — the bottom-up
// sweep's short-circuit stays exact per lane, with no cross-lane false
// positives, even when other lanes are dense in the same granule.
type LaneSummary struct {
	plane *LanePlane // one word per granule
	g     int64      // vertices per granule
	n     int64      // vertices of the base plane
}

// NewLaneSummary returns a zeroed summary for a plane of n vertices at
// granularity g (vertices per summary word). Like Summary, g must be a
// positive multiple of 64 so both summaries cover identical granules.
func NewLaneSummary(n, g int64) *LaneSummary {
	if g <= 0 || g%wordBits != 0 {
		panic(fmt.Sprintf("bitmap: lane-summary granularity %d must be a positive multiple of %d", g, wordBits))
	}
	return &LaneSummary{plane: NewLanePlane((n + g - 1) / g), g: g, n: n}
}

// WrapLaneSummary builds a LaneSummary view over an existing plane of one
// word per granule (e.g. a node-shared region). The plane must hold
// ceil(n/g) words.
func WrapLaneSummary(plane *LanePlane, g, n int64) *LaneSummary {
	if g <= 0 || g%wordBits != 0 {
		panic(fmt.Sprintf("bitmap: lane-summary granularity %d must be a positive multiple of %d", g, wordBits))
	}
	if want := (n + g - 1) / g; plane.Len() != want {
		panic(fmt.Sprintf("bitmap: lane-summary plane has %d words, want %d", plane.Len(), want))
	}
	return &LaneSummary{plane: plane, g: g, n: n}
}

// Plane returns the summary's own plane (one word per granule).
func (s *LaneSummary) Plane() *LanePlane { return s.plane }

// CoveredZero reports whether the granule containing vertex v is known to
// be empty in every lane of mask. True means the caller may skip reading
// the base plane for all those lanes at once.
func (s *LaneSummary) CoveredZero(v int64, mask uint64) bool {
	return s.plane.words[granule(v, s.g)]&mask == 0
}

// RebuildRange recomputes the summary words covering vertices [lo, hi)
// from the base plane. lo and hi must be granule-aligned (hi may equal
// the vertex count). Returns the number of summary words written, which
// the cost model charges as sequential work.
func (s *LaneSummary) RebuildRange(base *LanePlane, lo, hi int64) int64 {
	if base.Len() != s.n {
		panic("bitmap: lane-summary RebuildRange length mismatch")
	}
	if lo%s.g != 0 || (hi != s.n && hi%s.g != 0) {
		panic("bitmap: lane-summary RebuildRange bounds not granule-aligned")
	}
	firstGranule := lo / s.g
	lastGranule := (hi + s.g - 1) / s.g
	var written int64
	for gi := firstGranule; gi < lastGranule; gi++ {
		vLo := gi * s.g
		vHi := vLo + s.g
		if vHi > s.n {
			vHi = s.n
		}
		var any uint64
		for v := vLo; v < vHi; v++ {
			any |= base.words[v]
		}
		s.plane.words[gi] = any
		written++
	}
	return written
}

// Rebuild recomputes the whole summary from the base plane.
func (s *LaneSummary) Rebuild(base *LanePlane) int64 {
	return s.RebuildRange(base, 0, s.n)
}

// Consistent reports whether the summary exactly matches base: summary
// word gi equals the OR of granule gi's plane words. Used by property
// tests.
func (s *LaneSummary) Consistent(base *LanePlane) bool {
	if base.Len() != s.n {
		return false
	}
	fresh := NewLaneSummary(s.n, s.g)
	fresh.Rebuild(base)
	for i, w := range fresh.plane.words {
		if s.plane.words[i] != w {
			return false
		}
	}
	return true
}
