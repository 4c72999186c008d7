package bfs

import (
	"fmt"
	"testing"

	"numabfs/internal/chassis"
	"numabfs/internal/graph"
	"numabfs/internal/machine"
	"numabfs/internal/rmat"
)

// graphs shares kernel 1 across the package's tests, which build the
// same few R-MAT graphs over and over; a hit is bit-identical to a fresh
// build, SetupNs included (chassis.GraphCache). Tests of determinism and
// tests that record construction into an obs session build their own.
var graphs = chassis.NewGraphCache()

// setUp builds a runner and runs its Setup through graphs.
func setUp(t testing.TB, cfg machine.Config, policy machine.Policy, params rmat.Params, opts Options) *Runner {
	t.Helper()
	r, err := NewRunner(cfg, policy, params, opts)
	if err != nil {
		t.Fatal(err)
	}
	k := chassis.GraphKey{Machine: cfg, Policy: policy, Params: params, Dedup: opts.Dedup, Spares: opts.SpareRanks}
	if err := graphs.Setup(k, &r.Core, &r.Graph1D, r.Setup); err != nil {
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

// levelsOf reconstructs global levels from the runner's parent arrays.
func levelsOf(r *Runner, root int64) []int64 {
	n := r.Params.NumVertices()
	parent := make([]int64, n)
	for rank, pa := range r.ParentArrays() {
		lo, _ := r.Part.Range(rank)
		copy(parent[lo:lo+int64(len(pa))], pa)
	}
	level := make([]int64, n)
	for i := range level {
		level[i] = -1
	}
	if parent[root] < 0 {
		return level
	}
	level[root] = 0
	for changed := true; changed; {
		changed = false
		for v := int64(0); v < n; v++ {
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

func TestBFSMatchesReferenceAcrossVariants(t *testing.T) {
	const scale = 12
	params := rmat.Graph500(scale)
	ref := graph.BuildGlobal(params, true)
	roots := params.Roots(3, ref.HasEdge)

	for _, mode := range []Mode{ModeHybrid, ModeTopDown, ModeBottomUp} {
		for _, opt := range []Opt{OptOriginal, OptShareInQueue, OptShareAll, OptParAllgather, OptCompressedAllgather} {
			for _, pol := range []machine.Policy{machine.PPN8Bind, machine.PPN1Interleave} {
				name := fmt.Sprintf("%s/%s/%s", mode, opt, pol)
				t.Run(name, func(t *testing.T) {
					opts := DefaultOptions()
					opts.Mode = mode
					opts.Opt = opt
					r := setUp(t, testConfig(scale, 2, 4), pol, params, opts)
					for _, root := range roots {
						res := r.RunRoot(root)
						wantLevel, _ := graph.ReferenceBFS(ref, root)
						got := levelsOf(r, root)
						for v := range got {
							if got[v] != wantLevel[v] {
								t.Fatalf("root %d vertex %d: level %d, want %d", root, v, got[v], wantLevel[v])
							}
						}
						var wantVisited, wantEdges int64
						for v, l := range wantLevel {
							if l >= 0 {
								wantVisited++
								wantEdges += ref.Degree(int64(v))
							}
						}
						if res.Visited != wantVisited {
							t.Errorf("root %d: visited %d, want %d", root, res.Visited, wantVisited)
						}
						if res.TraversedEdges != wantEdges/2 {
							t.Errorf("root %d: traversed edges %d, want %d", root, res.TraversedEdges, wantEdges/2)
						}
						if res.TimeNs <= 0 || res.TEPS <= 0 {
							t.Errorf("root %d: non-positive time/TEPS: %+v", root, res)
						}
					}
				})
			}
		}
	}
}

func TestHybridSwitchesModes(t *testing.T) {
	const scale = 14
	params := rmat.Graph500(scale)
	opts := DefaultOptions()
	r := setUp(t, testConfig(scale, 2, 4), machine.PPN8Bind, params, opts)
	ref := graph.BuildGlobal(params, true)
	root := params.Roots(1, ref.HasEdge)[0]
	res := r.RunRoot(root)
	if res.Breakdown.TDLevels == 0 {
		t.Error("hybrid BFS ran no top-down levels")
	}
	if res.Breakdown.BULevels == 0 {
		t.Error("hybrid BFS ran no bottom-up levels on an R-MAT graph")
	}
	if res.Breakdown.Ns[4] /* switch */ <= 0 {
		t.Error("no switch time recorded")
	}
}

func TestGranularityVariantsAgree(t *testing.T) {
	const scale = 12
	params := rmat.Graph500(scale)
	ref := graph.BuildGlobal(params, true)
	root := params.Roots(1, ref.HasEdge)[0]
	wantLevel, _ := graph.ReferenceBFS(ref, root)

	for _, g := range []int64{64, 128, 256, 1024, 4096} {
		opts := DefaultOptions()
		opts.Granularity = g
		opts.Opt = OptParAllgather
		r := setUp(t, testConfig(scale, 2, 4), machine.PPN8Bind, params, opts)
		r.RunRoot(root)
		got := levelsOf(r, root)
		for v := range got {
			if got[v] != wantLevel[v] {
				t.Fatalf("g=%d vertex %d: level %d, want %d", g, v, got[v], wantLevel[v])
			}
		}
	}
}

func TestDeterministicVirtualTime(t *testing.T) {
	const scale = 12
	params := rmat.Graph500(scale)
	times := make([]float64, 2)
	for i := range times {
		r, err := NewRunner(testConfig(scale, 2, 4), machine.PPN8Bind, params, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		r.Setup()
		res := r.RunRoot(params.Roots(1, r.HasEdgeGlobal)[0])
		times[i] = res.TimeNs
	}
	if times[0] != times[1] {
		t.Fatalf("virtual time not deterministic: %g vs %g", times[0], times[1])
	}
}

func TestNewRunnerRejectsBadInputs(t *testing.T) {
	params := rmat.Graph500(8) // 256 vertices
	// 2 nodes x 4 sockets = 8 ranks -> needs >= 512 vertices.
	if _, err := NewRunner(testConfig(8, 2, 4), machine.PPN8Bind, params, DefaultOptions()); err == nil {
		t.Error("expected error for too-small scale")
	}
	opts := DefaultOptions()
	opts.Granularity = 100 // not a multiple of 64
	if _, err := NewRunner(testConfig(12, 1, 4), machine.PPN8Bind, rmat.Graph500(12), opts); err == nil {
		t.Error("expected error for bad granularity")
	}
}
