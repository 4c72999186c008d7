// Package graph provides the distributed graph representation the
// paper's BFS runs on: a 1-D block partition of the vertex set over MPI
// ranks, a local CSR (compressed sparse row) adjacency structure per
// rank, a distributed construction path (Graph500 kernel 1: route each
// generated edge to the owners of both endpoints), and a sequential
// reference BFS used by the validator and the tests.
package graph

import (
	"fmt"
	"math/bits"
)

// Partition is a 1-D block partition of vertices [0, N) over NP ranks.
// Rank boundaries are aligned to 64 vertices so that each rank's slice of
// a bitmap is a whole number of words — required for the allgather of
// in_queue segments (and true in the reference code, where N and NP are
// powers of two).
type Partition struct {
	N    int64
	NP   int
	offs []int64 // len NP+1; rank r owns [offs[r], offs[r+1])
	// chunk is the first rank's width, which every rank but a short or
	// empty tail shares, and shift is log2 of chunk when it is a power
	// of two (0 otherwise).
	chunk int64
	shift uint8
}

// NewPartition builds the partition. It panics if N < NP (every rank
// must own at least one vertex for the collectives to be meaningful).
func NewPartition(n int64, np int) Partition {
	if np < 1 || n < int64(np) {
		panic(fmt.Sprintf("graph: cannot partition %d vertices over %d ranks", n, np))
	}
	// Equal word-aligned chunks: ceil(n/np) rounded up to 64.
	chunk := (n + int64(np) - 1) / int64(np)
	chunk = (chunk + 63) &^ 63
	offs := make([]int64, np+1)
	for r := 1; r <= np; r++ {
		o := int64(r) * chunk
		if o > n {
			o = n
		}
		offs[r] = o
	}
	p := Partition{N: n, NP: np, offs: offs, chunk: offs[1]}
	if c := p.chunk; c&(c-1) == 0 {
		p.shift = uint8(bits.TrailingZeros64(uint64(c)))
	}
	return p
}

// Owner returns the rank owning vertex v: one shift when the chunk is a
// power of two, else one division. Owner runs once per edge in the
// top-down sweeps and kernel 1's routing; the shift path inlines.
func (p Partition) Owner(v int64) int {
	if p.shift != 0 {
		return min(int(v>>p.shift), p.NP-1)
	}
	return min(int(v/p.chunk), p.NP-1)
}

// Range returns the vertex range [lo, hi) owned by rank r.
func (p Partition) Range(r int) (lo, hi int64) { return p.offs[r], p.offs[r+1] }

// Offsets returns the NP+1 boundary offsets (shared; do not modify).
func (p Partition) Offsets() []int64 { return p.offs }

// WordOffsets returns the per-rank boundaries in 64-bit words, for use as
// a bitmap allgather layout. All boundaries are word-aligned by
// construction.
func (p Partition) WordOffsets() []int64 {
	w := make([]int64, len(p.offs))
	for i, o := range p.offs {
		if o%64 != 0 && i != len(p.offs)-1 {
			panic("graph: partition boundary not word-aligned")
		}
		w[i] = (o + 63) / 64
	}
	return w
}
