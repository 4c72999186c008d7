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
	// uniform marks the equal-chunk NewPartition shape, enabling
	// Owner's single-division fast path, and shift is log2 of such a
	// chunk when it is a power of two (0 otherwise; a chunk is >= 64);
	// survivor repartitioning (RemoveRank) may clear both, and Owner
	// binary-searches instead.
	uniform bool
	shift   uint8
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
	return Partition{N: n, NP: np, offs: offs}.indexed()
}

// indexed returns p with Owner's fast paths set from its boundaries.
func (p Partition) indexed() Partition {
	p.uniform = p.isUniform()
	if c := p.offs[1] - p.offs[0]; p.uniform && c > 0 && c&(c-1) == 0 {
		p.shift = uint8(bits.TrailingZeros64(uint64(c)))
	}
	return p
}

// Owner returns the rank owning vertex v. Uniform partitions (every
// chunk the size of the first — the NewPartition shape) resolve with
// one shift when the chunk is a power of two, else one division;
// non-uniform ones (after RemoveRank merges a dead rank's range into a
// neighbour) fall back to a binary search over the boundaries. Owner
// runs once per edge in the top-down sweeps and kernel 1's routing;
// the shift path inlines.
func (p Partition) Owner(v int64) int {
	if p.shift != 0 {
		return min(int(v>>p.shift), p.NP-1)
	}
	return p.ownerSlow(v)
}

// ownerSlow is Owner without a power-of-two chunk.
func (p Partition) ownerSlow(v int64) int {
	chunk := p.offs[1] - p.offs[0]
	if chunk == 0 {
		return 0
	}
	if p.uniform {
		return min(int(v/chunk), p.NP-1)
	}
	// Binary search: the largest r with offs[r] <= v.
	lo, hi := 0, p.NP-1
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if p.offs[mid] <= v {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return lo
}

// RemoveRank returns the partition with rank r's vertex range merged
// into a contiguous neighbour, and the index of the surviving rank that
// absorbed it (in the NEW partition's numbering). The predecessor
// absorbs (drop the boundary below r); rank 0's range goes to its
// successor. Every survivor keeps a contiguous, word-aligned range, so
// the bitmap allgather layouts stay valid.
func (p Partition) RemoveRank(r int) (Partition, int) {
	if p.NP < 2 {
		panic("graph: cannot remove the last rank of a partition")
	}
	if r < 0 || r >= p.NP {
		panic(fmt.Sprintf("graph: RemoveRank(%d) outside [0, %d)", r, p.NP))
	}
	offs := make([]int64, 0, p.NP)
	drop := r // drop boundary offs[r]: predecessor r-1 absorbs
	absorber := r - 1
	if r == 0 {
		drop = 1 // drop offs[1]: successor absorbs, becoming new rank 0
		absorber = 0
	}
	for i := range p.offs {
		if i == drop {
			continue
		}
		offs = append(offs, p.offs[i])
	}
	np := p.NP - 1
	// The merged chunk breaks uniformity unless every chunk already
	// matched it; recompute conservatively.
	return Partition{N: p.N, NP: np, offs: offs}.indexed(), absorber
}

// isUniform reports whether offs[r] == min(r*chunk, N) for every r —
// the NewPartition shape Owner's division fast path requires.
func (p Partition) isUniform() bool {
	chunk := p.offs[1] - p.offs[0]
	if chunk == 0 {
		return true
	}
	for r := 0; r <= p.NP; r++ {
		want := int64(r) * chunk
		if want > p.N {
			want = p.N
		}
		if p.offs[r] != want {
			return false
		}
	}
	return true
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
