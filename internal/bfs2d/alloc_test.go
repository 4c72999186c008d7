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
// collective call, not per vertex or candidate pair — 66 objects
// measured — and the count must not grow root over root.
func TestRootAllocs2DBounded(t *testing.T) {
	first := rootAllocs2D(t)
	again := rootAllocs2D(t)
	if again > first {
		t.Errorf("per-root allocations grew across roots: %g then %g", first, again)
	}
	const bound = 76
	if first > bound {
		t.Errorf("2-D root allocates %g objects, want <= %d", first, bound)
	}
}
