package bfs2d

import "numabfs/internal/graph"

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
