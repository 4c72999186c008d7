package graph500

import (
	"testing"

	"numabfs/internal/bfs"
	"numabfs/internal/bfs2d"
	"numabfs/internal/machine"
	"numabfs/internal/rmat"
)

func testRunner2D(t *testing.T, scale int, mode bfs2d.Mode) *bfs2d.Runner {
	t.Helper()
	cfg := machine.Scaled(scale, scale+12)
	cfg.Nodes = 2
	cfg.SocketsPerNode = 4
	cfg.WeakNode = -1
	r, err := bfs2d.NewRunner(cfg, machine.PPN8Bind, bfs2d.Grid{R: 2, C: 4}, rmat.Graph500(scale), 0)
	if err != nil {
		t.Fatal(err)
	}
	r.Mode = mode
	r.Setup()
	return r
}

// TestValidateRun2DAcceptsGenuineTrees: every rung of the 2-D ladder
// must produce trees the Graph500 validator accepts.
func TestValidateRun2DAcceptsGenuineTrees(t *testing.T) {
	for _, mode := range []bfs2d.Mode{bfs2d.ModeTopDown, bfs2d.ModeHybrid, bfs2d.ModeBottomUp} {
		r := testRunner2D(t, 12, mode)
		for _, root := range r.Params.Roots(2, r.HasEdgeGlobal) {
			r.RunRoot(root)
			if err := ValidateRun2D(r, root); err != nil {
				t.Fatalf("%v: genuine tree rejected: %v", mode, err)
			}
		}
	}
}

// TestValidateRun2DCatchesCorruption exercises each rule on a genuine
// run with one surgical corruption at a time.
func TestValidateRun2DCatchesCorruption(t *testing.T) {
	r := testRunner2D(t, 12, bfs2d.ModeTopDown)
	root := r.Params.Roots(1, r.HasEdgeGlobal)[0]
	r.RunRoot(root)
	if err := ValidateRun2D(r, root); err != nil {
		t.Fatalf("genuine tree rejected: %v", err)
	}
	parents := r.ParentArrays()
	bs := r.BlockSize()

	// Rule 1: break the root's self-parent.
	rootRank := int(root / bs)
	orig := parents[rootRank][root%bs]
	parents[rootRank][root%bs] = -1
	if err := ValidateRun2D(r, root); err == nil {
		t.Fatal("validator accepted a rootless tree")
	}
	parents[rootRank][root%bs] = orig

	// Rule 2/3: point a visited vertex at itself (never a graph edge —
	// self-loops are dropped at Setup — and a level cycle).
	found := false
corrupt:
	for rank, pa := range parents {
		for i := range pa {
			v := int64(rank)*bs + int64(i)
			if pa[i] >= 0 && v != root && pa[i] != v {
				orig = pa[i]
				pa[i] = v
				found = true
				break corrupt
			}
		}
	}
	if !found {
		t.Fatal("no vertex to corrupt")
	}
	if err := ValidateRun2D(r, root); err == nil {
		t.Fatal("validator accepted a self-parented non-root vertex")
	}

	// Rule 4: un-visit an interior vertex (its neighbours stay visited).
	for rank, pa := range parents {
		for i := range pa {
			v := int64(rank)*bs + int64(i)
			if pa[i] >= 0 && v != root {
				pa[i] = -1
				if err := ValidateRun2D(r, root); err == nil {
					t.Fatal("validator accepted a hole in the visited set")
				}
				return
			}
		}
	}
	t.Fatal("no vertex to corrupt")
}

// TestBFS2DLevelsMatchesValidatorScale16 is the regression test for the
// Levels parent-chase rewrite: at scale 16 the 2-D hybrid engine's
// level reconstruction must agree vertex-for-vertex with the 1-D
// engine's validator-backed Levels on the same graph, and the tree must
// pass the full 2-D validation. (The old fixed-point reconstruction was
// O(n x diameter); the parent-chase is one O(n) pass, which is what
// makes this scale practical in the validation sweeps.)
func TestBFS2DLevelsMatchesValidatorScale16(t *testing.T) {
	const scale = 16
	cfg := machine.Scaled(scale, scale+12)
	cfg.Nodes = 2
	cfg.SocketsPerNode = 4
	cfg.WeakNode = -1
	params := rmat.Graph500(scale)

	r1, err := bfs.NewRunner(cfg, machine.PPN8Bind, params, bfs.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	r1.Setup()
	r2 := testRunner2D(t, scale, bfs2d.ModeHybrid)

	root := params.Roots(1, r1.HasEdgeGlobal)[0]
	r1.RunRoot(root)
	r2.RunRoot(root)
	if err := ValidateRun2D(r2, root); err != nil {
		t.Fatalf("2-D tree rejected at scale %d: %v", scale, err)
	}
	want := Levels(r1, root)
	got := r2.Levels(root)
	if len(got) != len(want) {
		t.Fatalf("level array length %d, want %d", len(got), len(want))
	}
	for v := range want {
		if got[v] != want[v] {
			t.Fatalf("vertex %d: 2-D level %d, 1-D level %d", v, got[v], want[v])
		}
	}
}
