package graph

import "numabfs/internal/rmat"

// BuildGlobal materializes the whole graph as a single CSR — feasible at
// the scales the examples and validator use, and the ground truth the
// distributed construction must agree with.
func BuildGlobal(p rmat.Params, dedup bool) *CSR {
	one := RouteEdges(p, 0, p.NumEdges(), 1, func(_, _ int64) int { return 0 })
	return BuildCSRFrom(0, p.NumVertices(), one, dedup)
}

// ReferenceBFS runs a sequential BFS over a global CSR and returns the
// level of every vertex (-1 for unreachable) and the parent array (-1
// for unreachable; root's parent is itself, per the Graph500 convention).
func ReferenceBFS(c *CSR, root int64) (level, parent []int64) {
	n := c.Hi - c.Lo
	level = make([]int64, n)
	parent = make([]int64, n)
	for i := range level {
		level[i] = -1
		parent[i] = -1
	}
	level[root] = 0
	parent[root] = root
	frontier := []int64{root}
	for depth := int64(1); len(frontier) > 0; depth++ {
		var next []int64
		for _, u := range frontier {
			for _, w := range c.Neighbors(u) {
				if v := int64(w); level[v] < 0 {
					level[v] = depth
					parent[v] = u
					next = append(next, v)
				}
			}
		}
		frontier = next
	}
	return level, parent
}

// TreeLevels derives every vertex's depth below root from a parent array
// (-1 = no parent) by one memoized parent chase: follow the chain up to
// the root or an already resolved ancestor, then unwind it assigning
// depths — O(n) overall, where a fixed-point relaxation rescans all n
// vertices once per BFS level. A chain that ends at a parentless vertex
// or closes on itself is not connected to the root: its vertices are
// marked dead so no later chase walks them again, and come back as -1
// (as does everything when the root itself has no parent).
func TreeLevels(parent []int64, root int64) []int64 {
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

// ConnectedComponent returns the number of vertices reachable from root
// (including root) in a global CSR.
func ConnectedComponent(c *CSR, root int64) int64 {
	level, _ := ReferenceBFS(c, root)
	var n int64
	for _, l := range level {
		if l >= 0 {
			n++
		}
	}
	return n
}
