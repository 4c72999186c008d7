package bfs2d

import (
	"slices"

	"numabfs/internal/graph"
)

// HasEdgeGlobal reports whether vertex v has any stored adjacency, by
// consulting the processor column that stores v's out-edges. Used for
// Graph500-style root selection.
func (r *Runner) HasEdgeGlobal(v int64) bool {
	j := int(v / (int64(r.Grid.R) * r.blockSize))
	cLo, _ := r.colRange(j)
	for i := 0; i < r.Grid.R; i++ {
		rs := r.states[r.rankOf(i, j)]
		if rs.rowPtr[v-cLo+1] > rs.rowPtr[v-cLo] {
			return true
		}
	}
	return false
}

// ParentArrays returns the live owned parent blocks, indexed by grid
// cell (entries are owner-relative, cell k covering vertices
// [k*BlockSize, (k+1)*BlockSize)). Exposed for the external validator
// and its corruption tests, mirroring the 1-D engine. At construction
// cell k is held by rank k; a promotion remaps the cell, not the block.
func (r *Runner) ParentArrays() [][]int64 {
	out := make([][]int64, len(r.cellRank))
	for c, rank := range r.cellRank {
		out[c] = r.states[rank].parent
	}
	return out
}

// Parents assembles the global parent array from the per-cell blocks
// left by the last RunRoot (-1 for unreached vertices).
func (r *Runner) Parents() []int64 {
	parent := make([]int64, r.Params.NumVertices())
	for c, rank := range r.cellRank {
		lo := int64(c) * r.blockSize
		copy(parent[lo:lo+r.blockSize], r.states[rank].parent)
	}
	return parent
}

// Levels reconstructs the global level array from the per-rank parent
// blocks left by the last RunRoot (-1 for unreached vertices, and for
// any vertex whose parent chain does not lead to the root). Used by the
// validator-style tests and the experiment drivers.
func (r *Runner) Levels(root int64) []int64 { return graph.TreeLevels(r.Parents(), root) }

// BlockSize returns the number of vertices per owned block.
func (r *Runner) BlockSize() int64 { return r.blockSize }

// HasEdge reports whether the directed adjacency (u, v) is stored in
// the grid, via binary search of the sorted local row at the rank that
// owns it (grid row of v's block, processor column of u). The graph is
// symmetrized at Setup, so this also answers "is {u, v} an edge".
func (r *Runner) HasEdge(u, v int64) bool {
	j := int(u / (int64(r.Grid.R) * r.blockSize))
	i := int(v/r.blockSize) % r.Grid.R
	rs := r.states[r.rankOf(i, j)]
	cLo, _ := r.colRange(j)
	_, ok := slices.BinarySearch(rs.col[rs.rowPtr[u-cLo]:rs.rowPtr[u-cLo+1]], uint32(v))
	return ok
}

// EachStoredEdge calls f for every directed adjacency (u, v) stored at
// grid cell `cell` (== the holding rank until a promotion remaps it).
// Together with HasEdge this is what an external validator needs to
// check the full Graph500 rule set without reaching into the CSR
// layout.
func (r *Runner) EachStoredEdge(cell int, f func(u, v int64)) {
	rs := r.states[r.cellRank[cell]]
	cLo, _ := r.colRange(rs.j)
	for rel := int64(0); rel < int64(len(rs.rowPtr))-1; rel++ {
		for _, v := range rs.col[rs.rowPtr[rel]:rs.rowPtr[rel+1]] {
			f(cLo+rel, int64(v))
		}
	}
}
