package graph500

import (
	"fmt"

	"numabfs/internal/bfs2d"
)

// ValidateRun2D checks the BFS tree left in a 2-D runner's rank states
// against the same Graph500 rule set as ValidateRun:
//
//  1. the root's parent is itself;
//  2. every tree edge (v, parent[v]) exists in the graph;
//  3. levels derived from the parent tree are consistent (each vertex is
//     exactly one level below its parent) and the tree is acyclic;
//  4. every graph edge joins vertices whose levels differ by at most
//     one, and never joins a visited vertex to an unvisited one (so the
//     visited set is exactly the root's connected component).
//
// Rule 2 consults the grid rank storing the (v, parent) adjacency; rule
// 4 walks every rank's stored edges, so each undirected edge is checked
// in both directions (they live on different grid ranks).
func ValidateRun2D(r *bfs2d.Runner, root int64) error {
	parent := r.Parents()
	n := int64(len(parent))
	if parent[root] != root {
		return fmt.Errorf("root %d has parent %d, want itself", root, parent[root])
	}

	level, err := connectedLevels(parent, root)
	if err != nil {
		return err
	}

	// Rules 2 and 3 over the parent tree.
	for v := int64(0); v < n; v++ {
		pv := parent[v]
		if pv < 0 || v == root {
			continue
		}
		if !r.HasEdge(v, pv) {
			return fmt.Errorf("tree edge (%d, %d) is not a graph edge", v, pv)
		}
		if level[v] != level[pv]+1 {
			return fmt.Errorf("vertex %d at level %d but parent %d at level %d", v, level[v], pv, level[pv])
		}
	}

	// Rule 4 over every stored directed adjacency.
	for rank := 0; rank < r.Grid.R*r.Grid.C && err == nil; rank++ {
		r.EachStoredEdge(rank, func(u, v int64) {
			if lu, lv := level[u], level[v]; err == nil && !levelsAdjacent(lu, lv) {
				err = rule4Error(u, v, lu, lv)
			}
		})
	}
	return err
}
