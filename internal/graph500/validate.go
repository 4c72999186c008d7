package graph500

import (
	"fmt"
	"slices"

	"numabfs/internal/bfs"
	"numabfs/internal/graph"
)

// ValidateRun checks the BFS tree left in a runner's rank states against
// the Graph500 specification:
//
//  1. the root's parent is itself;
//  2. every tree edge (v, parent[v]) exists in the graph;
//  3. levels derived from the parent tree are consistent (each vertex is
//     exactly one level below its parent) and the tree is acyclic;
//  4. every graph edge joins vertices whose levels differ by at most
//     one, and never joins a visited vertex to an unvisited one (so the
//     visited set is exactly the root's connected component).
func ValidateRun(r *bfs.Runner, root int64) error {
	return validateTree(globalParents(r), root, r.CSRs())
}

// globalParents assembles the global parent array from a runner's
// per-member blocks.
func globalParents(r *bfs.Runner) []int64 {
	parent := make([]int64, r.Params.NumVertices())
	for pos, pa := range r.ParentArrays() {
		lo, _ := r.Part.Range(pos)
		copy(parent[lo:lo+int64(len(pa))], pa)
	}
	return parent
}

// validateTree is the specification core shared by the single-root and
// the batched (per-lane) validators: parent is the global parent array,
// csrs the distributed graph (per-member edge checks run on positions,
// not world ranks: spares own nothing and a shrink removes a position).
func validateTree(parent []int64, root int64, csrs []*graph.CSR) error {
	if parent[root] != root {
		return fmt.Errorf("root %d has parent %d, want itself", root, parent[root])
	}

	level, err := connectedLevels(parent, root)
	if err != nil {
		return err
	}

	for _, csr := range csrs {
		lo, hi := csr.Lo, csr.Hi
		for v := lo; v < hi; v++ {
			row := csr.Neighbors(v)
			if pv := parent[v]; pv >= 0 && v != root {
				// Rule 2: the tree edge must be a graph edge.
				if _, ok := slices.BinarySearch(row, uint32(pv)); !ok {
					return fmt.Errorf("tree edge (%d, %d) is not a graph edge", v, pv)
				}
				// Rule 3: exactly one level apart.
				if level[v] != level[pv]+1 {
					return fmt.Errorf("vertex %d at level %d but parent %d at level %d", v, level[v], pv, level[pv])
				}
			}
			for _, u := range row {
				if lv, lu := level[v], level[u]; !levelsAdjacent(lv, lu) {
					return rule4Error(v, int64(u), lv, lu)
				}
			}
		}
	}
	return nil
}

// levelsAdjacent is rule 4 for one graph edge whose endpoints sit at
// levels lv and lu (-1 = outside the component): graph edges span at most
// one level, and visited and unvisited vertices are never adjacent.
// Small enough to inline into the validators' per-edge loops.
func levelsAdjacent(lv, lu int64) bool {
	return (lv^lu) >= 0 && uint64(lv-lu+1) <= 2 // same side of the component, at most one apart
}

// rule4Error describes the edge (v, u) that failed levelsAdjacent.
func rule4Error(v, u, lv, lu int64) error {
	if lv < 0 || lu < 0 {
		return fmt.Errorf("edge (%d, %d) joins visited and unvisited vertices (levels %d, %d)", v, u, lv, lu)
	}
	return fmt.Errorf("edge (%d, %d) spans levels %d and %d", v, u, lv, lu)
}

// Levels reconstructs the global level array from a runner's parent
// arrays (for tests comparing against the sequential reference BFS).
// Unreached vertices get -1.
func Levels(r *bfs.Runner, root int64) []int64 {
	return graph.TreeLevels(globalParents(r), root)
}

// connectedLevels is graph.TreeLevels for a validator: a vertex with a
// parent but no path of parents to the root (a cycle or an orphaned
// subtree) is an error.
func connectedLevels(parent []int64, root int64) ([]int64, error) {
	level := graph.TreeLevels(parent, root)
	var orphans int64
	for v, l := range level {
		if l < 0 && parent[v] >= 0 {
			orphans++
		}
	}
	if orphans > 0 {
		return nil, fmt.Errorf("%d vertices have parents but are unreachable from the root (cycle in tree)", orphans)
	}
	return level, nil
}
