package bfs2d

import (
	"fmt"
	"testing"

	"numabfs/internal/graph"
	"numabfs/internal/machine"
	"numabfs/internal/rmat"
)

// TestBFS2DModesMatchReference: the hybrid and bottom-up 2-D ladders
// must produce exactly the reference traversal (levels, visited count),
// with and without wire compression, across grid shapes.
func TestBFS2DModesMatchReference(t *testing.T) {
	const scale = 12
	params := rmat.Graph500(scale)
	ref := graph.BuildGlobal(params, true)
	roots := params.Roots(3, ref.HasEdge)

	for _, mode := range []Mode{ModeHybrid, ModeBottomUp} {
		for _, compress := range []bool{false, true} {
			for _, grid := range []Grid{{R: 2, C: 4}, {R: 4, C: 2}, {R: 1, C: 8}, {R: 8, C: 1}} {
				name := fmt.Sprintf("%s-compress=%v-grid%dx%d", mode, compress, grid.R, grid.C)
				t.Run(name, func(t *testing.T) {
					r, err := NewRunner(testConfig(scale, 2, 4), machine.PPN8Bind, grid, params)
					if err != nil {
						t.Fatal(err)
					}
					r.Mode = mode
					r.Compress = compress
					r.Setup()
					for _, root := range roots {
						res := r.RunRoot(root)
						wantLevel, _ := graph.ReferenceBFS(ref, root)
						got := r.Levels(root)
						for v := range got {
							if got[v] != wantLevel[v] {
								t.Fatalf("root %d vertex %d: level %d, want %d", root, v, got[v], wantLevel[v])
							}
						}
						var wantVisited int64
						for _, l := range wantLevel {
							if l >= 0 {
								wantVisited++
							}
						}
						if res.Visited != wantVisited {
							t.Errorf("root %d: visited %d, want %d", root, res.Visited, wantVisited)
						}
						if mode == ModeBottomUp && res.Breakdown.BULevels == 0 {
							t.Errorf("root %d: bottom-up mode ran no bottom-up levels", root)
						}
						if mode == ModeHybrid && res.Breakdown.TDLevels == 0 {
							t.Errorf("root %d: hybrid mode ran no top-down levels", root)
						}
					}
				})
			}
		}
	}
}

// TestBFS2DHybridSwitches: on a Graph500 R-MAT graph at this scale the
// hybrid heuristic must actually take bottom-up levels (that is the
// whole point of the ladder), and record the direction and frontier
// sizes in LevelStats.
func TestBFS2DHybridSwitches(t *testing.T) {
	const scale = 14
	params := rmat.Graph500(scale)
	r, err := NewRunner(testConfig(scale, 2, 4), machine.PPN8Bind, Grid{R: 2, C: 4}, params)
	if err != nil {
		t.Fatal(err)
	}
	r.Mode = ModeHybrid
	r.Setup()
	root := params.Roots(1, r.HasEdgeGlobal)[0]
	res := r.RunRoot(root)
	if res.Breakdown.BULevels == 0 {
		t.Fatalf("hybrid ran only top-down levels: %+v", res.Breakdown)
	}
	if res.Breakdown.TDLevels == 0 {
		t.Fatalf("hybrid ran only bottom-up levels: %+v", res.Breakdown)
	}
	if len(res.LevelStats) != res.Levels {
		t.Fatalf("LevelStats has %d entries, want %d", len(res.LevelStats), res.Levels)
	}
	var sawBU, sawMF bool
	var nfSum int64
	for k, ls := range res.LevelStats {
		if ls.Level != k+1 {
			t.Fatalf("LevelStats[%d].Level = %d", k, ls.Level)
		}
		if ls.BottomUp {
			sawBU = true
		}
		if ls.MF > 0 {
			sawMF = true
		}
		nfSum += ls.NF
	}
	if !sawBU {
		t.Fatal("no LevelStat marked bottom-up")
	}
	if !sawMF {
		t.Fatal("no LevelStat carries a frontier edge count")
	}
	if nfSum != res.Visited-1 {
		t.Fatalf("LevelStats NF sum %d, want visited-1 = %d", nfSum, res.Visited-1)
	}
}

// TestBFS2DLegacyUnchanged: a clean uncompressed ModeTopDown run (the
// zero value) keeps the fault, transport and wire ledgers exactly zero,
// as the 1-D engine does.
func TestBFS2DLegacyUnchanged(t *testing.T) {
	const scale = 12
	params := rmat.Graph500(scale)
	r, err := NewRunner(testConfig(scale, 2, 4), machine.PPN8Bind, Grid{R: 2, C: 4}, params)
	if err != nil {
		t.Fatal(err)
	}
	r.Setup()
	a := r.RunRoot(params.Roots(1, r.HasEdgeGlobal)[0])
	if a.Xport != (RootResult{}.Xport) || a.Wire.RawBytes != 0 || len(a.Faults) != 0 {
		t.Fatalf("clean top-down run has nonzero fault/wire ledgers: %+v", a)
	}
}
