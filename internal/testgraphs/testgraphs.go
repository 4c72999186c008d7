// Package testgraphs builds small adversarial (non-R-MAT) edge lists for
// engine tests: the shapes where direction switching, load balance and
// word-at-a-time scans have their edge cases — rows of one edge, a rank
// with no edges at all, heavy multi-edges and self-loops, neighbours far
// apart in the id space, several components.
package testgraphs

import "math/rand"

// Input is one undirected edge list over vertices [0, n) with the
// construction flag and BFS root its tests should use.
type Input struct {
	Name  string
	Edges [][2]int64
	Dedup bool
	Root  int64
}

// Adversarial returns the inputs for n vertices (a power of two, at
// least 1024) owned in `parts` equal contiguous ranges.
func Adversarial(n int64, parts int) []Input {
	per := n / int64(parts)
	rng := rand.New(rand.NewSource(16))
	var path, star, isolated, matching, dups, split [][2]int64
	// A 300-vertex path that hops across ranges and words at every step.
	for k := int64(0); k < 300; k++ {
		path = append(path, [2]int64{k * 37 % n, (k + 1) * 37 % n})
	}
	for v := int64(0); v < n; v += 3 {
		star = append(star, [2]int64{5, v})
	}
	// Random edges that never touch the third range.
	for len(isolated) < int(4*n) {
		u, v := rng.Int63n(n), rng.Int63n(n)
		if u/per != 2 && v/per != 2 {
			isolated = append(isolated, [2]int64{u, v})
		}
	}
	for v := int64(0); v < n/2; v++ {
		matching = append(matching, [2]int64{v, n - 1 - v}) // every row has one edge
	}
	// 64 hot vertices, every pair many times over, plus self-loops.
	for k := 0; k < int(8*n); k++ {
		u, v := rng.Int63n(64)*61%n, rng.Int63n(64)*61%n
		dups = append(dups, [2]int64{u, v}, [2]int64{u, u})
	}
	// Two components (even and odd ids); every id = 7 mod 8 is isolated.
	for len(split) < int(6*n) {
		u := rng.Int63n(n)
		v := rng.Int63n(n/2)*2 + u%2
		if u%8 != 7 && v%8 != 7 {
			split = append(split, [2]int64{u, v})
		}
	}
	return []Input{
		{"path", path, true, 0},
		{"star", star, true, 5},
		{"star-from-leaf", star, true, 9},
		{"isolated-range", isolated, true, isolated[0][0]},
		{"single-edge-rows", matching, true, 3},
		{"duplicates-selfloops", dups, false, dups[0][0]},
		{"disconnected", split, true, split[0][0]},
	}
}

// Route returns the directed adjacency pairs (src, nbr, src, nbr, ...)
// of the input, both directions of every edge, split over nd
// destinations by dest — the vectors graph.BuildCSRFrom consumes.
func (in Input) Route(nd int, dest func(src, nbr int64) int) [][]int64 {
	out := make([][]int64, nd)
	for _, e := range in.Edges {
		for _, d := range [][2]int64{{e[0], e[1]}, {e[1], e[0]}} {
			k := dest(d[0], d[1])
			out[k] = append(out[k], d[0], d[1])
		}
	}
	return out
}
