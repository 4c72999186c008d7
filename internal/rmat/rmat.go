// Package rmat generates scale-free graphs with the R-MAT recursive
// matrix model of Chakrabarti, Zhan and Faloutsos, using the Graph500
// parameters (a, b, c, d) = (0.57, 0.19, 0.19, 0.05) and edgefactor 16.
//
// Edges are generated independently by index: EdgeAt(i) derives a private
// PRNG stream from (seed, i), so any rank of a distributed job can
// generate any slice of the edge list without coordination — mirroring
// the structure of the Graph500 reference generator. Vertex labels are
// scrambled with a seeded bijective permutation so that vertex id carries
// no locality information (the reference code's vertex scrambling).
package rmat

import (
	"fmt"
	"slices"

	"numabfs/internal/xrand"
)

// Params describes an R-MAT instance.
type Params struct {
	Scale      int     // log2 of the number of vertices
	EdgeFactor int64   // edges per vertex (Graph500: 16)
	A, B, C, D float64 // quadrant probabilities, summing to 1
	Seed       uint64
	// Scramble applies a uniform bijective relabelling to vertex ids, as
	// the Graph500 specification requires (default). Disabling it keeps
	// R-MAT's natural ordering, in which popular vertices cluster at low
	// ids — useful for studying how clustered in_queue zeros interact
	// with the summary granularity, at the price of heavy partition
	// imbalance.
	Scramble bool
}

// Graph500 returns the standard Graph500 R-MAT parameters at the given
// scale, with spec-conforming vertex scrambling.
func Graph500(scale int) Params {
	return Params{
		Scale:      scale,
		EdgeFactor: 16,
		A:          0.57,
		B:          0.19,
		C:          0.19,
		D:          0.05,
		Seed:       20120924, // CLUSTER 2012 conference date
		Scramble:   true,
	}
}

// WithScramble returns a copy of p with vertex scrambling set to on.
func (p Params) WithScramble(on bool) Params {
	p.Scramble = on
	return p
}

// WithSeed returns a copy of p with the given seed.
func (p Params) WithSeed(seed uint64) Params {
	p.Seed = seed
	return p
}

// NumVertices returns 2^Scale.
func (p Params) NumVertices() int64 { return 1 << uint(p.Scale) }

// NumEdges returns EdgeFactor * 2^Scale.
func (p Params) NumEdges() int64 { return p.EdgeFactor << uint(p.Scale) }

// Validate reports a parameter error, or nil.
func (p Params) Validate() error {
	if p.Scale < 1 || p.Scale > 32 {
		return fmt.Errorf("rmat: scale %d out of range [1, 32] (the graph stores vertex ids in 32 bits)", p.Scale)
	}
	if p.EdgeFactor < 1 {
		return fmt.Errorf("rmat: edge factor %d < 1", p.EdgeFactor)
	}
	sum := p.A + p.B + p.C + p.D
	if sum < 0.999 || sum > 1.001 {
		return fmt.Errorf("rmat: quadrant probabilities sum to %g, want 1", sum)
	}
	if p.A < 0 || p.B < 0 || p.C < 0 || p.D < 0 {
		return fmt.Errorf("rmat: negative quadrant probability")
	}
	return nil
}

// EdgeAt returns the endpoints of edge i (0 <= i < NumEdges), after
// vertex scrambling. Self-loops are possible, as in the reference
// generator; graph construction drops them.
func (p Params) EdgeAt(i int64) (u, v int64) {
	g := p.generator()
	return g.edge(i)
}

// Edges appends edges [lo, hi) to dst (as endpoint pairs) and returns it:
// the block form of EdgeAt, which derives the per-instance constants
// once per call and allocates nothing when dst has room.
func (p Params) Edges(dst []int64, lo, hi int64) []int64 {
	g := p.generator()
	dst = slices.Grow(dst, int(2*max(hi-lo, 0)))
	for i := lo; i < hi; i++ {
		u, v := g.edge(i)
		dst = append(dst, u, v)
	}
	return dst
}

// ScrambleVertex applies a seeded bijection on [0, 2^Scale): two rounds
// of multiply-by-odd and xorshift, both invertible modulo a power of two.
func (p Params) ScrambleVertex(v int64) int64 {
	g := p.generator()
	return int64(g.scrambleVertex(uint64(v)))
}

// generator is a Params with everything that does not depend on the
// edge index worked out once. Per level of the descent the u bit is set
// when a draw exceeds the (noised) share ab of the two upper quadrants,
// the v bit when another exceeds the left quadrant's share of the chosen
// half: vt[0] = a/(a+b) above, vt[1] = c/(c+d) below. cab and cvt are
// the complements the noise formula divides by; k1 and k2 the odd
// multipliers of the vertex bijection.
type generator struct {
	seed, k1, k2, mask uint64
	scale              int
	half               uint
	ab, cab            float64
	vt, cvt            [2]float64
	scramble           bool
}

func (p Params) generator() generator {
	ab := p.A + p.B
	acNorm := p.C / (p.C + p.D)
	aNorm := p.A / ab
	return generator{
		seed: p.Seed, k1: mix(p.Seed, 0xa5a5a5a5) | 1, k2: mix(p.Seed, 0x5a5a5a5a) | 1,
		mask: uint64(p.NumVertices() - 1), scale: p.Scale, half: uint(p.Scale+1) / 2,
		ab: ab, cab: 1 - ab,
		vt: [2]float64{aNorm, acNorm}, cvt: [2]float64{1 - aNorm, 1 - acNorm},
		scramble: p.Scramble,
	}
}

// edge descends the recursive matrix one level per bit, high bit first.
// A level consumes four draws of the edge's private stream, always in
// this order: the noise factors f1 and f2 (as in the Graph500 reference,
// they prevent exact self-similarity artifacts), the u-bit draw, the
// v-bit draw. The v-bit threshold is selected from the two-entry table
// by the u bit rather than branched on — the quadrant choice is close to
// a coin flip and mispredicts a quarter of the time — and the stream's
// state stays in locals for the whole descent.
func (g *generator) edge(i int64) (int64, int64) {
	// A private stream per edge keeps generation order-independent.
	s0, s1, s2, s3 := xrand.SeedXoshiro256(mix(g.seed, uint64(i)))
	ab, cab := g.ab, g.cab
	var u, v uint64
	for bit := g.scale - 1; bit >= 0; bit-- {
		var d1, d2, du, dv uint64
		d1, s0, s1, s2, s3 = xrand.StepXoshiro256(s0, s1, s2, s3)
		d2, s0, s1, s2, s3 = xrand.StepXoshiro256(s0, s1, s2, s3)
		du, s0, s1, s2, s3 = xrand.StepXoshiro256(s0, s1, s2, s3)
		dv, s0, s1, s2, s3 = xrand.StepXoshiro256(s0, s1, s2, s3)
		f1 := 0.95 + 0.1*xrand.UnitFloat64(d1)
		f2 := 0.95 + 0.1*xrand.UnitFloat64(d2)
		ub := bit01(xrand.UnitFloat64(du) > ab*f1/(ab*f1+cab))
		t, ct := g.vt[ub], g.cvt[ub]
		vb := bit01(xrand.UnitFloat64(dv) > t*f2/(t*f2+ct))
		u, v = u<<1|ub, v<<1|vb
	}
	if g.scramble {
		u, v = g.scrambleVertex(u), g.scrambleVertex(v)
	}
	return int64(u), int64(v)
}

// bit01 is a comparison's result as an integer: a flag-set instruction,
// not a branch.
func bit01(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

func (g *generator) scrambleVertex(x uint64) uint64 {
	x &= g.mask
	x = (x * g.k1) & g.mask
	x ^= x >> g.half
	x = (x * g.k2) & g.mask
	return x ^ x>>g.half
}

// mix combines a seed and an index into a well-distributed 64-bit value.
func mix(seed, i uint64) uint64 {
	s := xrand.NewSplitMix64(seed ^ (i * 0x9e3779b97f4a7c15))
	return s.Uint64()
}

// Roots returns n distinct BFS roots that have at least one incident
// edge, chosen deterministically from the seed — the Graph500 evaluation
// draws 64 such roots. hasEdge reports whether a vertex has neighbours.
func (p Params) Roots(n int, hasEdge func(v int64) bool) []int64 {
	rng := xrand.NewXoshiro256(mix(p.Seed, 0x0072007))
	seen := make(map[int64]bool, n)
	roots := make([]int64, 0, n)
	nv := uint64(p.NumVertices())
	// R-MAT graphs have many isolated vertices; bound the rejection
	// sampling so a pathological hasEdge cannot spin forever.
	for attempts := uint64(0); len(roots) < n; attempts++ {
		if attempts > 256*nv {
			panic(fmt.Sprintf("rmat: could not find %d rooted vertices (graph too sparse?)", n))
		}
		v := int64(rng.Uint64n(nv))
		if seen[v] || !hasEdge(v) {
			continue
		}
		seen[v] = true
		roots = append(roots, v)
	}
	return roots
}
