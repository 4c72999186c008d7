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
	n := r.Params.NumVertices()
	parent := make([]int64, n)
	for rank, pa := range r.ParentArrays() {
		lo, _ := r.Part.Range(rank)
		copy(parent[lo:lo+int64(len(pa))], pa)
	}
	csrs := make([]*graph.CSR, len(r.ParentArrays()))
	for pos := range csrs {
		csrs[pos] = r.State(pos).CSR
	}
	return validateTree(parent, root, csrs)
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
				if _, ok := slices.BinarySearch(row, pv); !ok {
					return fmt.Errorf("tree edge (%d, %d) is not a graph edge", v, pv)
				}
				// Rule 3: exactly one level apart.
				if level[v] != level[pv]+1 {
					return fmt.Errorf("vertex %d at level %d but parent %d at level %d", v, level[v], pv, level[pv])
				}
			}
			// Rule 4: graph edges span at most one level; visited and
			// unvisited vertices are never adjacent.
			for _, u := range row {
				lv, lu := level[v], level[u]
				switch {
				case lv < 0 && lu < 0:
					// both outside the component: fine
				case lv < 0 || lu < 0:
					return fmt.Errorf("edge (%d, %d) joins visited and unvisited vertices (levels %d, %d)", v, u, lv, lu)
				case lv-lu > 1 || lu-lv > 1:
					return fmt.Errorf("edge (%d, %d) spans levels %d and %d", v, u, lv, lu)
				}
			}
		}
	}
	return nil
}

// Levels reconstructs the global level array from a runner's parent
// arrays (for tests comparing against the sequential reference BFS).
// Unreached vertices get -1.
func Levels(r *bfs.Runner, root int64) []int64 {
	n := r.Params.NumVertices()
	parent := make([]int64, n)
	for rank, pa := range r.ParentArrays() {
		lo, _ := r.Part.Range(rank)
		copy(parent[lo:lo+int64(len(pa))], pa)
	}
	return treeLevels(parent, root)
}

// connectedLevels is treeLevels for a validator: a vertex with a parent
// but no path of parents to the root (a cycle or an orphaned subtree) is
// an error.
func connectedLevels(parent []int64, root int64) ([]int64, error) {
	level := treeLevels(parent, root)
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

// treeLevels derives every vertex's depth below root from a parent array
// (-1 = no parent) by one memoized parent chase: follow the chain up to
// the root or an already resolved ancestor, then unwind it assigning
// depths — O(n) overall, where a fixed-point relaxation rescans all n
// vertices once per BFS level. A chain that ends at a parentless vertex
// or closes on itself is not connected to the root: its vertices are
// marked dead so no later chase walks them again, and come back as -1
// (as does everything when the root itself has no parent).
func treeLevels(parent []int64, root int64) []int64 {
	const unset, dead = -1, -2
	level := make([]int64, len(parent))
	for i := range level {
		level[i] = unset
	}
	if parent[root] >= 0 {
		level[root] = 0
	}
	var chain []int64
	for v := range parent {
		chain = chain[:0]
		u := int64(v)
		// Chain members are marked dead while the chase runs, so running
		// into one of them (a cycle) stops it like any dead end.
		for level[u] == unset && parent[u] >= 0 {
			level[u] = dead
			chain = append(chain, u)
			u = parent[u]
		}
		if base := level[u]; base >= 0 {
			for k := len(chain) - 1; k >= 0; k-- {
				base++
				level[chain[k]] = base
			}
		}
	}
	for i, l := range level {
		if l == dead {
			level[i] = unset
		}
	}
	return level
}
