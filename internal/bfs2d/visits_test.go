package bfs2d

// Differential tests of the ledger's visit counters: RunRoot reports the
// Visited and TraversedEdges the members counted while they traversed,
// and those must equal what a serial pass over the finished parent
// blocks recomputes — on every mode, with and without compression, on a
// square and a single-row grid, and through crash recovery.

import (
	"fmt"
	"testing"

	"numabfs/internal/fault"
	"numabfs/internal/rmat"
)

// refVisits is the serial pass RunRoot used to run after the traversal:
// count the set parents, then sum every cell's local adjacencies whose
// source was visited (each undirected edge is stored twice across the
// grid).
func refVisits(r *Runner) (visited, edges int64) {
	for _, rs := range r.states {
		for _, pa := range rs.parent {
			if pa >= 0 {
				visited++
			}
		}
		cLo, cHi := r.colRange(rs.j)
		for u := cLo; u < cHi; u++ {
			owner := r.states[r.ownerOf(u)]
			if owner.parent[u-owner.ownLo()] >= 0 {
				edges += rs.rowPtr[u-cLo+1] - rs.rowPtr[u-cLo]
			}
		}
	}
	return visited, edges / 2
}

// checkVisits fails t when res disagrees with the serial reference.
func checkVisits(t *testing.T, r *Runner, res RootResult) {
	t.Helper()
	visited, edges := refVisits(r)
	if res.Visited != visited || res.TraversedEdges != edges {
		t.Fatalf("root %d: counted %d visited / %d edges, reference %d / %d",
			res.Root, res.Visited, res.TraversedEdges, visited, edges)
	}
}

// TestVisitCountersMatchReference2D: every mode × compression × grid
// shape. The 1×16 grid is the shape DefaultGrid falls back to for a
// rank count that is not a power of two (such a count itself never
// divides the 2^scale vertices). The hybrid runs must switch both
// ways, so each hand-over of the frontier is covered: a frontier
// counted on both sides of a switch, or on neither, breaks the edge
// total.
func TestVisitCountersMatchReference2D(t *testing.T) {
	const scale = 13
	params := rmat.Graph500(scale)
	for _, grid := range []Grid{DefaultGrid(16), {R: 1, C: 16}} {
		for _, mode := range []Mode{ModeTopDown, ModeHybrid, ModeBottomUp} {
			for _, compress := range []bool{false, true} {
				name := fmt.Sprintf("grid%dx%d-%s-compress=%v", grid.R, grid.C, mode, compress)
				t.Run(name, func(t *testing.T) {
					r := setUp(t, testConfig(scale, 4, 4), grid, params, 0, mode, compress)
					var toBU, toTD bool
					for _, root := range params.Roots(3, r.HasEdgeGlobal) {
						res := r.RunRoot(root)
						checkVisits(t, r, res)
						for k := 1; k < len(res.LevelStats); k++ {
							prev, cur := res.LevelStats[k-1].BottomUp, res.LevelStats[k].BottomUp
							toBU = toBU || !prev && cur
							toTD = toTD || prev && !cur
						}
					}
					if mode == ModeHybrid && !(toBU && toTD) {
						t.Fatalf("hybrid switched to bottom-up %v, back to top-down %v; both hand-overs must be covered", toBU, toTD)
					}
				})
			}
		}
	}
}

// TestVisitCountersThroughRecovery2D: a rerun in place restarts the
// counters (a stale count from the lost attempt would inflate the
// total), and a spare promotion carries them with the moved state.
func TestVisitCountersThroughRecovery2D(t *testing.T) {
	const scale = 12
	params := rmat.Graph500(scale)
	for _, mode := range []Mode{ModeTopDown, ModeHybrid} {
		t.Run("rerun-"+mode.String(), func(t *testing.T) {
			_, clean := runWithPlan2D(t, mode, false, nil)
			plan := fault.Plan{Crashes: []fault.Crash{{Rank: 3, AtNs: 0.6 * clean.TimeNs}}}
			r, res := runWithPlan2D(t, mode, false, &plan)
			if len(res.Faults) != 1 {
				t.Fatalf("Faults = %+v, want one crash", res.Faults)
			}
			checkVisits(t, r, res)
			if res.Visited != clean.Visited || res.TraversedEdges != clean.TraversedEdges {
				t.Fatalf("rerun counted %d/%d, clean run %d/%d",
					res.Visited, res.TraversedEdges, clean.Visited, clean.TraversedEdges)
			}
		})
	}
	t.Run("promote", func(t *testing.T) {
		r := setUp(t, testConfig(scale, 2, 4), Grid{R: 2, C: 2}, params, 2, ModeHybrid, false)
		root := params.Roots(1, r.HasEdgeGlobal)[0]
		clean := r.RunRoot(root)
		checkVisits(t, r, clean)
		if err := r.InjectFaults(fault.Plan{Crashes: []fault.Crash{
			{Rank: 1, AtNs: 0.5 * clean.TimeNs, Permanent: true},
		}}); err != nil {
			t.Fatal(err)
		}
		res := r.RunRoot(root)
		if res.Epoch != 1 {
			t.Fatalf("epoch %d, want 1 (one promotion)", res.Epoch)
		}
		checkVisits(t, r, res)
		if res.Visited != clean.Visited || res.TraversedEdges != clean.TraversedEdges {
			t.Fatalf("promoted run counted %d/%d, clean run %d/%d",
				res.Visited, res.TraversedEdges, clean.Visited, clean.TraversedEdges)
		}
	})
}
