package graph500

import (
	"math/rand"
	"slices"
	"testing"

	"numabfs/internal/graph"
)

// relaxLevels is the fixed-point relaxation graph.TreeLevels replaced: one
// pass over all vertices per BFS level until nothing changes.
func relaxLevels(parent []int64, root int64) []int64 {
	level := make([]int64, len(parent))
	for i := range level {
		level[i] = -1
	}
	if parent[root] < 0 {
		return level
	}
	level[root] = 0
	for changed := true; changed; {
		changed = false
		for v := range parent {
			if level[v] >= 0 || parent[v] < 0 {
				continue
			}
			if pl := level[parent[v]]; pl >= 0 {
				level[v] = pl + 1
				changed = true
			}
		}
	}
	return level
}

// TestTreeLevelsMatchesRelaxation: on random parent arrays — a tree
// under the root, parentless vertices, chains into parentless vertices,
// self-parents, long and short cycles with subtrees hanging off them —
// the memoized chase leaves exactly the levels the relaxation did, and
// the validator's orphan count is the relaxation's.
func TestTreeLevelsMatchesRelaxation(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 300; trial++ {
		n := 2 + rng.Intn(400)
		parent := make([]int64, n)
		root := int64(rng.Intn(n))
		order := rng.Perm(n)
		for k, v := range order {
			switch r := rng.Intn(10); {
			case k == 0 || r == 0:
				parent[v] = -1
			case r == 1:
				parent[v] = int64(rng.Intn(n)) // may close a cycle or point at itself
			default:
				parent[v] = int64(order[rng.Intn(k)]) // an earlier vertex: no cycle
			}
		}
		if trial%10 != 0 {
			parent[root] = root
		}
		want := relaxLevels(parent, root)
		if got := graph.TreeLevels(parent, root); !slices.Equal(got, want) {
			t.Fatalf("trial %d (n=%d root=%d):\nparent %v\n   got %v\n  want %v", trial, n, root, parent, got, want)
		}
		var orphans int
		for v, l := range want {
			if l < 0 && parent[v] >= 0 {
				orphans++
			}
		}
		if parent[root] != root {
			continue
		}
		if _, err := connectedLevels(parent, root); (err != nil) != (orphans > 0) {
			t.Fatalf("trial %d: %d orphans but error %v", trial, orphans, err)
		}
	}
}
