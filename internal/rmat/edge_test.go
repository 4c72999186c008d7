package rmat

import (
	"encoding/binary"
	"hash/fnv"
	"testing"

	"numabfs/internal/xrand"
)

// referenceEdgeAt is the straight-line generator EdgeAt had before it
// went block-wise and branch-free, kept verbatim as the differential
// oracle: one heap generator per edge, the quadrant descent as nested
// branches, the scramble constants re-derived per vertex.
func referenceEdgeAt(p Params, i int64) (u, v int64) {
	rng := xrand.NewXoshiro256(mix(p.Seed, uint64(i)))
	ab := p.A + p.B
	acNorm := p.C / (p.C + p.D)
	aNorm := p.A / ab
	for bit := p.Scale - 1; bit >= 0; bit-- {
		f1 := 0.95 + 0.1*rng.Float64()
		f2 := 0.95 + 0.1*rng.Float64()
		r := rng.Float64()
		if r > ab*f1/(ab*f1+(1-ab)) {
			u |= 1 << uint(bit)
			if rng.Float64() > acNorm*f2/(acNorm*f2+(1-acNorm)) {
				v |= 1 << uint(bit)
			}
		} else if rng.Float64() > aNorm*f2/(aNorm*f2+(1-aNorm)) {
			v |= 1 << uint(bit)
		}
	}
	if p.Scramble {
		return referenceScramble(p, u), referenceScramble(p, v)
	}
	return u, v
}

func referenceScramble(p Params, v int64) int64 {
	mask := uint64(p.NumVertices() - 1)
	x := uint64(v) & mask
	k1 := (mix(p.Seed, 0xa5a5a5a5) | 1)
	k2 := (mix(p.Seed, 0x5a5a5a5a) | 1)
	half := uint(p.Scale+1) / 2
	x = (x * k1) & mask
	x ^= (x >> half)
	x = (x * k2) & mask
	x ^= (x >> half)
	return int64(x & mask)
}

// TestEdgeStreamGolden pins the generator's output: FNV-1a-64 over the
// little-endian (u, v) of edges [0, 1<<16). Every figure, root draw and
// committed baseline in the repository hangs off this stream.
func TestEdgeStreamGolden(t *testing.T) {
	cases := []struct {
		name string
		p    Params
		want uint64
	}{
		{"graph500-16", Graph500(16), 0xe7b43b99498881cf},
		{"scale19-seed7", Graph500(19).WithSeed(7), 0x75542ff2ba7c57e3},
		{"scale12-noscramble", Graph500(12).WithScramble(false), 0xee2a9a1981708640},
		{"scale27-seed99", Graph500(27).WithSeed(99), 0x466bf2e405d34b62},
	}
	for _, c := range cases {
		h := fnv.New64a()
		var buf [16]byte
		for i := int64(0); i < 1<<16; i++ {
			u, v := c.p.EdgeAt(i)
			binary.LittleEndian.PutUint64(buf[0:], uint64(u))
			binary.LittleEndian.PutUint64(buf[8:], uint64(v))
			h.Write(buf[:])
		}
		if got := h.Sum64(); got != c.want {
			t.Errorf("%s: edge stream hash %#x, want %#x", c.name, got, c.want)
		}
	}
}

// skewed is a non-Graph500 quadrant mix, so the oracle comparison does
// not only see the thresholds the defaults produce.
func skewed(scale int) Params {
	p := Graph500(scale).WithSeed(0xfeedface)
	p.A, p.B, p.C, p.D = 0.45, 0.15, 0.25, 0.15
	return p
}

func TestEdgeAtMatchesReference(t *testing.T) {
	n := int64(1 << 16)
	if testing.Short() {
		n = 1 << 12
	}
	var checked int64
	for _, scale := range []int{5, 16, 19, 27} {
		for _, p := range []Params{
			Graph500(scale),
			Graph500(scale).WithScramble(false),
			Graph500(scale).WithSeed(uint64(scale) * 977),
			skewed(scale),
			skewed(scale).WithScramble(false),
		} {
			// A prefix plus a stretch far into the index space (EdgeAt
			// takes any int64 index, not only those below NumEdges).
			for _, lo := range []int64{0, 1<<40 + 12345} {
				for i := lo; i < lo+n; i++ {
					u, v := p.EdgeAt(i)
					ru, rv := referenceEdgeAt(p, i)
					if u != ru || v != rv {
						t.Fatalf("%+v edge %d: (%d, %d), reference (%d, %d)", p, i, u, v, ru, rv)
					}
					checked++
				}
			}
		}
	}
	if !testing.Short() && checked < 1<<20 {
		t.Fatalf("only %d indices checked", checked)
	}
}

func FuzzEdgeAt(f *testing.F) {
	f.Add(uint64(20120924), uint8(16), int64(0))
	f.Add(uint64(0), uint8(1), int64(-1))
	f.Add(uint64(1<<63), uint8(40), int64(1<<62))
	f.Fuzz(func(t *testing.T, seed uint64, scale uint8, i int64) {
		p := skewed(1 + int(scale)%40).WithSeed(seed).WithScramble(i&1 == 0)
		u, v := p.EdgeAt(i)
		ru, rv := referenceEdgeAt(p, i)
		if u != ru || v != rv {
			t.Fatalf("%+v edge %d: (%d, %d), reference (%d, %d)", p, i, u, v, ru, rv)
		}
		if s := p.ScrambleVertex(ru); s != referenceScramble(p, ru) {
			t.Fatalf("%+v ScrambleVertex(%d) = %d, reference %d", p, ru, s, referenceScramble(p, ru))
		}
	})
}

// TestEdgesEqualsEdgeAt: the block API is the per-edge API, for ragged
// ranges including the empty and single-edge ones, and appends to what
// dst already holds.
func TestEdgesEqualsEdgeAt(t *testing.T) {
	for _, p := range []Params{Graph500(14), skewed(9).WithScramble(false)} {
		for _, r := range [][2]int64{{0, 0}, {5, 5}, {7, 8}, {0, 1}, {3, 11}, {1000, 2025}, {p.NumEdges() - 3, p.NumEdges()}} {
			lo, hi := r[0], r[1]
			got := p.Edges([]int64{-7}, lo, hi)
			if got[0] != -7 || int64(len(got)) != 1+2*(hi-lo) {
				t.Fatalf("Edges(%d, %d): len %d, head %d", lo, hi, len(got), got[0])
			}
			for i := lo; i < hi; i++ {
				u, v := p.EdgeAt(i)
				if k := 1 + 2*(i-lo); got[k] != u || got[k+1] != v {
					t.Fatalf("Edges(%d, %d) edge %d: (%d, %d), EdgeAt (%d, %d)", lo, hi, i, got[k], got[k+1], u, v)
				}
			}
		}
	}
}

func TestEdgesDoesNotAllocate(t *testing.T) {
	p := Graph500(16)
	dst := make([]int64, 0, 2*512)
	if n := testing.AllocsPerRun(20, func() { dst = p.Edges(dst[:0], 100, 612) }); n != 0 {
		t.Fatalf("Edges into a pre-sized dst allocates %v times per call", n)
	}
	if n := testing.AllocsPerRun(20, func() { sinkU, sinkV = p.EdgeAt(77) }); n != 0 {
		t.Fatalf("EdgeAt allocates %v times per call", n)
	}
}

var sinkU, sinkV int64

func BenchmarkEdgeAt(b *testing.B) {
	p := Graph500(19)
	b.ReportAllocs()
	b.SetBytes(16)
	for i := 0; i < b.N; i++ {
		sinkU, sinkV = p.EdgeAt(int64(i))
	}
}

func BenchmarkEdges(b *testing.B) {
	p := Graph500(19)
	const block = 4096
	dst := make([]int64, 0, 2*block)
	b.ReportAllocs()
	b.SetBytes(16)
	for i := 0; i < b.N; i += block {
		n := min(block, b.N-i)
		dst = p.Edges(dst[:0], int64(i), int64(i+n))
	}
	sinkU = dst[0]
}
