package graph

import (
	"fmt"
	"slices"
)

// CSR is the local adjacency structure of one rank: the out-neighbour
// lists of the vertices it owns, with global neighbour ids. The graph is
// undirected, so every edge (u, v) appears in u's list on u's owner and
// in v's list on v's owner. Neighbour ids are stored in 4 bytes (scales
// up to 32, as rmat.Params.Validate enforces); the modelled machine still
// holds 8-byte ids, which BytesApprox prices. Readers widen at the use.
type CSR struct {
	Lo, Hi int64    // owned vertex range [Lo, Hi)
	RowPtr []int64  // len Hi-Lo+1
	Col    []uint32 // global neighbour ids, sorted per row
}

// NumLocal returns the number of owned vertices.
func (c *CSR) NumLocal() int64 { return c.Hi - c.Lo }

// NumEdges returns the number of stored directed adjacencies.
func (c *CSR) NumEdges() int64 { return int64(len(c.Col)) }

// Degree returns the degree of owned vertex v (global id).
func (c *CSR) Degree(v int64) int64 {
	i := v - c.Lo
	return c.RowPtr[i+1] - c.RowPtr[i]
}

// Neighbors returns the neighbour list of owned vertex v (global id).
// The returned slice aliases the CSR; do not modify.
func (c *CSR) Neighbors(v int64) []uint32 {
	i := v - c.Lo
	return c.Col[c.RowPtr[i]:c.RowPtr[i+1]]
}

// HasEdge reports whether owned vertex v has at least one neighbour.
func (c *CSR) HasEdge(v int64) bool { return c.Degree(v) > 0 }

// BytesApprox is the CSR's size in the Graph500 reference layout, 8 bytes
// per row pointer and per neighbour id: the structure the cache and
// bandwidth model prices (PhaseLoad.StructBytes, the re-own charge). It
// is not the host footprint, whose Col holds 4-byte ids.
func (c *CSR) BytesApprox() int64 {
	return int64(len(c.RowPtr))*8 + int64(len(c.Col))*8
}

// BuildCSR builds the CSR for owned range [lo, hi) from directed
// adjacency pairs: pairs[2k] is a source in [lo, hi), pairs[2k+1] its
// neighbour (global). Self-loops are dropped; duplicate adjacencies are
// kept or deduplicated according to dedup (Graph500 permits multigraphs;
// the reference BFS implementations deduplicate during construction).
func BuildCSR(lo, hi int64, pairs []int64, dedup bool) *CSR {
	return BuildCSRFrom(lo, hi, [][]int64{pairs}, dedup)
}

// BuildCSRFrom is BuildCSR over several pair vectors — the shape an
// alltoallv delivers, one vector per sender — read where they lie. It is
// the one CSR construction in the repository: every engine reaches it
// through BuildDistributed (the 2-D engine on its column range),
// BuildGlobal on the whole vertex set. The result does not depend on how
// the pairs are split over vectors, and Col's backing array is exactly
// the pre-dedup adjacency count.
func BuildCSRFrom(lo, hi int64, vecs [][]int64, dedup bool) *CSR {
	n := hi - lo
	c := &CSR{Lo: lo, Hi: hi, RowPtr: make([]int64, n+1)}
	// Counting pass: RowPtr[i+1] = degree of row i, then its prefix sum
	// turns RowPtr[i] into the start of row i.
	for _, pairs := range vecs {
		if len(pairs)%2 != 0 {
			panic("graph: odd pair slice")
		}
		for k := 0; k < len(pairs); k += 2 {
			u, v := pairs[k], pairs[k+1]
			if u < lo || u >= hi {
				panic(fmt.Sprintf("graph: source %d outside [%d, %d)", u, lo, hi))
			}
			if u != v {
				c.RowPtr[u-lo+1]++
			}
		}
	}
	for i := int64(0); i < n; i++ {
		c.RowPtr[i+1] += c.RowPtr[i]
	}
	c.Col = make([]uint32, c.RowPtr[n])
	// Fill pass: RowPtr[i] is row i's write cursor, so it ends the pass
	// as the end of row i — the start of row i+1; shift it back down.
	for _, pairs := range vecs {
		for k := 0; k < len(pairs); k += 2 {
			u, v := pairs[k], pairs[k+1]
			if u != v {
				c.Col[c.RowPtr[u-lo]] = uint32(v)
				c.RowPtr[u-lo]++
			}
		}
	}
	copy(c.RowPtr[1:], c.RowPtr[:n])
	c.RowPtr[0] = 0
	// Sort each row; deduplicating compacts Col towards its front in the
	// same sweep, rewriting RowPtr behind the read position.
	var start, kept int64
	for i := int64(0); i < n; i++ {
		end := c.RowPtr[i+1]
		row := c.Col[start:end]
		slices.Sort(row)
		if dedup {
			var prev int64 = -1
			for _, v := range row {
				if int64(v) != prev {
					c.Col[kept] = v
					kept++
					prev = int64(v)
				}
			}
			c.RowPtr[i+1] = kept
		}
		start = end
	}
	if dedup {
		c.Col = c.Col[:kept]
	}
	return c
}
