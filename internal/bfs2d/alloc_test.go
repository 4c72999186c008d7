package bfs2d

// Allocation regression for the 2-D engine's per-root hot path, the
// counterpart of internal/bfs and internal/msbfs alloc_test.go: a warm
// root reuses the expand/fold result tables, the codec scratch and the
// dedup stamps, so its allocations are per level and per collective
// call, and must not grow root over root.

import (
	"testing"

	"numabfs/internal/rmat"
)

// rootAllocs2D measures the steady-state allocations of one hybrid,
// compressed RunRoot — the grid2d bench workload's shape — on a 2×4
// grid, after two warm-up roots. AllocsPerRun pins GOMAXPROCS to 1, so
// the count is stable run to run.
func rootAllocs2D(t *testing.T) float64 {
	t.Helper()
	const scale = 12
	params := rmat.Graph500(scale)
	r := setUp(t, testConfig(scale, 2, 4), Grid{R: 2, C: 4}, params, 0, ModeHybrid, true)
	root := params.Roots(1, r.HasEdgeGlobal)[0]
	r.RunRoot(root)
	r.RunRoot(root)
	return testing.AllocsPerRun(5, func() { r.RunRoot(root) })
}

// TestRootAllocs2DBounded: a warm 2-D root allocates per level and per
// collective call, not per vertex or candidate pair — 2 objects
// measured (66 while every omp region was allocated afresh) — and the
// count must not grow root over root.
func TestRootAllocs2DBounded(t *testing.T) {
	first := rootAllocs2D(t)
	again := rootAllocs2D(t)
	if again > first {
		t.Errorf("per-root allocations grew across roots: %g then %g", first, again)
	}
	const bound = 8
	if first > bound {
		t.Errorf("2-D root allocates %g objects, want <= %d", first, bound)
	}
}

// TestRootParks2DBounded: a warm hybrid, compressed root on a 128-rank
// grid replays its collectives — the list rings, the fold alltoallvs,
// the bitmap rings and the allreduces — so each rank parks about once
// per collective call, not once per message step: 3 416 parks measured,
// at every GOMAXPROCS, against 28 541 when only the raw collectives
// replayed.
func TestRootParks2DBounded(t *testing.T) {
	const scale = 13
	params := rmat.Graph500(scale)
	r := setUp(t, testConfig(scale, 16, 8), Grid{R: 8, C: 16}, params, 0, ModeHybrid, true)
	root := params.Roots(1, r.HasEdgeGlobal)[0]
	r.RunRoot(root)
	before := r.W.Parks()
	r.RunRoot(root)
	parks := r.W.Parks() - before
	const bound = 5000
	if parks > bound {
		t.Errorf("warm 2-D root on 128 ranks parked %d times, want <= %d", parks, bound)
	}
	t.Logf("warm 2-D root on 128 ranks: %d parks", parks)
}
