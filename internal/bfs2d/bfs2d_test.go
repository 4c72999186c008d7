package bfs2d

import (
	"fmt"
	"testing"

	"numabfs/internal/chassis"
	"numabfs/internal/graph"
	"numabfs/internal/machine"
	"numabfs/internal/obs"
	"numabfs/internal/rmat"
)

// graphs shares kernel 1 across the package's tests, which build the
// same few R-MAT grids over and over; a hit is bit-identical to a fresh
// build, SetupNs included (chassis.GraphCache). Tests of construction
// (TestSetupGolden), of determinism across repeats and host core counts
// (TestBFS2DDeterministic, TestBFS2DDeterministicWithTracing) and tests
// that record construction into an obs session build their own.
var graphs = chassis.NewGraphCache()

// setUp builds a ppn=8 runner on grid with the last spares ranks of
// every node parked, sets its direction policy and compression, and
// runs its Setup through graphs.
func setUp(t testing.TB, cfg machine.Config, grid Grid, params rmat.Params, spares int, mode Mode, compress bool) *Runner {
	t.Helper()
	r, err := NewRunner(cfg, machine.PPN8Bind, grid, params, spares)
	if err != nil {
		t.Fatal(err)
	}
	r.Mode, r.Compress = mode, compress
	k := chassis.GraphKey{Machine: cfg, Policy: machine.PPN8Bind, Params: params, Dedup: true, Spares: spares, Grid: grid}
	if err := graphs.Setup(k, &r.Core, &r.Graph, r.Setup); err != nil {
		t.Fatal(err)
	}
	return r
}

func testConfig(scale, nodes, sockets int) machine.Config {
	cfg := machine.Scaled(scale, scale+12)
	cfg.Nodes = nodes
	cfg.SocketsPerNode = sockets
	cfg.WeakNode = -1
	return cfg
}

func TestDefaultGrid(t *testing.T) {
	cases := []struct{ np, r, c int }{
		{1, 1, 1}, {4, 2, 2}, {8, 2, 4}, {16, 4, 4}, {64, 8, 8}, {128, 8, 16},
		{6, 1, 6}, // non-power-of-two falls back to a row
	}
	for _, c := range cases {
		g := DefaultGrid(c.np)
		if g.R != c.r || g.C != c.c {
			t.Errorf("DefaultGrid(%d) = %dx%d, want %dx%d", c.np, g.R, g.C, c.r, c.c)
		}
		if g.R*g.C != c.np {
			t.Errorf("DefaultGrid(%d) does not cover all ranks", c.np)
		}
	}
}

func TestGridMappingRoundTrip(t *testing.T) {
	cfg := testConfig(12, 2, 4)
	r, err := NewRunner(cfg, machine.PPN8Bind, Grid{R: 2, C: 4}, rmat.Graph500(12), 0)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[int]bool)
	for i := 0; i < 2; i++ {
		for j := 0; j < 4; j++ {
			rank := r.rankOf(i, j)
			if c := r.Members.Pos(rank); c != int(r.block(i, j)) {
				t.Fatalf("rankOf(%d,%d) = %d holds cell %d", i, j, rank, c)
			}
			if seen[rank] {
				t.Fatalf("rank %d mapped twice", rank)
			}
			seen[rank] = true
		}
	}
	// Every vertex's owner must sit in the grid row its block hashes to.
	n := r.Params.NumVertices()
	for _, v := range []int64{0, 1, n / 3, n / 2, n - 1} {
		owner := r.ownerOf(v)
		if int(v/r.blockSize)%r.Grid.R != int(owner)%r.Grid.R {
			t.Fatalf("vertex %d: owner cell %d in wrong grid row", v, owner)
		}
	}
}

func TestBFS2DMatchesReference(t *testing.T) {
	const scale = 12
	params := rmat.Graph500(scale)
	ref := graph.BuildGlobal(params, true)
	roots := params.Roots(3, ref.HasEdge)

	for _, geo := range []struct {
		nodes, sockets int
		grid           Grid
	}{
		{2, 4, Grid{R: 2, C: 4}},
		{2, 4, Grid{R: 4, C: 2}},
		{1, 4, Grid{R: 2, C: 2}},
	} {
		name := fmt.Sprintf("%dx%d-grid%dx%d", geo.nodes, geo.sockets, geo.grid.R, geo.grid.C)
		t.Run(name, func(t *testing.T) {
			r := setUp(t, testConfig(scale, geo.nodes, geo.sockets), geo.grid, params, 0, ModeTopDown, false)
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
				if res.TimeNs <= 0 || res.CommBytes <= 0 {
					t.Errorf("root %d: missing time/volume: %+v", root, res)
				}
			}
		})
	}
}

func TestBFS2DDeterministic(t *testing.T) {
	const scale = 12
	params := rmat.Graph500(scale)
	times := make([]float64, 2)
	for k := range times {
		r, err := NewRunner(testConfig(scale, 2, 4), machine.PPN8Bind, Grid{R: 2, C: 4}, params, 0)
		if err != nil {
			t.Fatal(err)
		}
		r.Setup()
		res := r.RunRoot(params.Roots(1, func(v int64) bool { return true })[0])
		times[k] = res.TimeNs
	}
	if times[0] != times[1] {
		t.Fatalf("2-D virtual time not deterministic: %g vs %g", times[0], times[1])
	}
}

func TestBFS2DDegenerateGrids(t *testing.T) {
	// A 1xN grid degenerates to 1-D column ownership; an Nx1 grid makes
	// the whole cluster one processor column (expand = full allgather,
	// fold local). Both must still match the reference.
	const scale = 12
	params := rmat.Graph500(scale)
	ref := graph.BuildGlobal(params, true)
	root := params.Roots(1, ref.HasEdge)[0]
	wantLevel, _ := graph.ReferenceBFS(ref, root)

	for _, grid := range []Grid{{R: 1, C: 8}, {R: 8, C: 1}} {
		r := setUp(t, testConfig(scale, 2, 4), grid, params, 0, ModeTopDown, false)
		r.RunRoot(root)
		got := r.Levels(root)
		for v := range got {
			if got[v] != wantLevel[v] {
				t.Fatalf("grid %dx%d vertex %d: level %d, want %d", grid.R, grid.C, v, got[v], wantLevel[v])
			}
		}
	}
}

func TestBFS2DDedupCutsFoldTraffic(t *testing.T) {
	// The sender-side dedup (Buluç & Madduri) must make the 2-D fold
	// traffic strictly smaller than the raw edge count would imply.
	const scale = 12
	params := rmat.Graph500(scale)
	r := setUp(t, testConfig(scale, 2, 4), Grid{R: 2, C: 4}, params, 0, ModeTopDown, false)
	root := params.Roots(1, r.HasEdgeGlobal)[0]
	res := r.RunRoot(root)
	// An undeduplicated fold would move ~16 bytes per traversed directed
	// edge; dedup should bring it well under that.
	rawPairBytes := 2 * res.TraversedEdges * 16
	if res.CommBytes >= rawPairBytes {
		t.Fatalf("comm %d bytes not below raw pair volume %d", res.CommBytes, rawPairBytes)
	}
}

func TestBFS2DSingleRank(t *testing.T) {
	// A 1x1 grid on one single-socket node: all collectives degenerate.
	const scale = 10
	params := rmat.Graph500(scale)
	ref := graph.BuildGlobal(params, true)
	root := params.Roots(1, ref.HasEdge)[0]
	wantLevel, _ := graph.ReferenceBFS(ref, root)

	r := setUp(t, testConfig(scale, 1, 1), Grid{R: 1, C: 1}, params, 0, ModeTopDown, false)
	r.RunRoot(root)
	got := r.Levels(root)
	for v := range got {
		if got[v] != wantLevel[v] {
			t.Fatalf("vertex %d: level %d, want %d", v, got[v], wantLevel[v])
		}
	}
}

func TestNewRunnerRejectsBadGrid(t *testing.T) {
	cfg := testConfig(12, 2, 4)
	if _, err := NewRunner(cfg, machine.PPN8Bind, Grid{R: 3, C: 3}, rmat.Graph500(12), 0); err == nil {
		t.Fatal("expected grid/ranks mismatch error")
	}
}

// TestObsRecordsSpans checks the 2-D engine feeds the observability
// layer: phase and level spans on every rank, without changing results.
func TestObsRecordsSpans(t *testing.T) {
	cfg := testConfig(12, 2, 4)
	params := rmat.Graph500(12)
	build := func(rec *obs.Recorder) *Runner {
		r, err := NewRunner(cfg, machine.PPN8Bind, Grid{R: 2, C: 4}, params, 0)
		if err != nil {
			t.Fatal(err)
		}
		if rec != nil {
			r.AttachObs(rec.NewSession("2d test"))
		}
		r.Setup()
		return r
	}
	plain := build(nil)
	root := params.Roots(1, plain.HasEdgeGlobal)[0]
	want := plain.RunRoot(root)

	rec := obs.NewRecorder()
	traced := build(rec)
	got := traced.RunRoot(root)
	if got.TimeNs != want.TimeNs || got.Breakdown != want.Breakdown {
		t.Fatalf("tracing changed 2-D results: %+v vs %+v", got, want)
	}

	sess := rec.Dump().Sessions[0]
	for _, rk := range sess.Ranks {
		var phases, levels int
		for _, sp := range rk.Spans {
			switch sp.Cat {
			case obs.CatPhase:
				phases++
			case obs.CatLevel:
				levels++
			}
		}
		if phases == 0 || levels == 0 {
			t.Fatalf("rank %d recorded %d phase / %d level spans", rk.ID, phases, levels)
		}
		if levels != got.Levels {
			t.Fatalf("rank %d level spans = %d, want %d", rk.ID, levels, got.Levels)
		}
	}
}

// TestBFS2DCompressedEquivalence: the compressed expand phase must
// produce the identical traversal while moving fewer wire bytes (the
// frontier lists are sorted per owner, so the varint-delta code beats 8
// bytes per vertex), with the raw ledger unchanged.
func TestBFS2DCompressedEquivalence(t *testing.T) {
	const scale = 12
	params := rmat.Graph500(scale)
	build := func(compress bool) *Runner {
		return setUp(t, testConfig(scale, 2, 4), Grid{R: 2, C: 4}, params, 0, ModeTopDown, compress)
	}
	plain := build(false)
	comp := build(true)
	root := params.Roots(1, plain.HasEdgeGlobal)[0]
	want := plain.RunRoot(root)
	got := comp.RunRoot(root)

	if got.Visited != want.Visited || got.TraversedEdges != want.TraversedEdges {
		t.Fatalf("compressed 2-D changed the traversal: %+v vs %+v", got, want)
	}
	wl, gl := plain.Levels(root), comp.Levels(root)
	for v := range wl {
		if wl[v] != gl[v] {
			t.Fatalf("vertex %d: level %d vs %d", v, gl[v], wl[v])
		}
	}
	if got.RawCommBytes != want.CommBytes {
		t.Errorf("compressed raw volume %d != plain volume %d", got.RawCommBytes, want.CommBytes)
	}
	if got.CommBytes >= want.CommBytes {
		t.Errorf("compressed wire bytes %d not below plain %d", got.CommBytes, want.CommBytes)
	}
}
