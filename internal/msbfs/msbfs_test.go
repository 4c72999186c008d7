package msbfs

import (
	"fmt"
	"runtime"
	"slices"
	"testing"

	"numabfs/internal/bfs"
	"numabfs/internal/chassis"
	"numabfs/internal/fault"
	"numabfs/internal/graph"
	"numabfs/internal/machine"
	"numabfs/internal/rmat"
	"numabfs/internal/trace"
)

// graphs shares kernel 1 across the package's tests, which build the
// same few R-MAT graphs over and over; a hit is bit-identical to a fresh
// build, SetupNs included (chassis.GraphCache). Kernel 1's own
// determinism is tested where it lives, in graph and bfs.
var graphs = chassis.NewGraphCache()

// setUp builds a runner and runs its Setup through graphs.
func setUp(t testing.TB, cfg machine.Config, policy machine.Policy, params rmat.Params, opts bfs.Options) *Runner {
	t.Helper()
	r, err := NewRunner(cfg, policy, params, opts)
	if err != nil {
		t.Fatal(err)
	}
	k := chassis.GraphKey{Machine: cfg, Policy: policy, Params: params, Dedup: opts.Dedup, Spares: opts.SpareRanks}
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

// laneLevelsOf reconstructs lane l's global levels from its parent tree.
func laneLevelsOf(r *Runner, l int, root int64) []int64 {
	parent := r.LaneParents(l)
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

func newTestRunner(t *testing.T, scale int, opts bfs.Options) *Runner {
	t.Helper()
	params := rmat.Graph500(scale)
	return setUp(t, testConfig(scale, 2, 4), machine.PPN8Bind, params, opts)
}

// TestBatchMatchesReferenceAcrossVariants: every lane's level structure
// must equal the sequential reference BFS at every mode and every
// supported optimization level.
func TestBatchMatchesReferenceAcrossVariants(t *testing.T) {
	const scale = 12
	params := rmat.Graph500(scale)
	ref := graph.BuildGlobal(params, true)
	roots := params.Roots(8, ref.HasEdge)

	for _, mode := range []bfs.Mode{bfs.ModeHybrid, bfs.ModeTopDown, bfs.ModeBottomUp} {
		for _, opt := range []bfs.Opt{bfs.OptOriginal, bfs.OptShareInQueue, bfs.OptShareAll,
			bfs.OptParAllgather, bfs.OptCompressedAllgather} {
			t.Run(fmt.Sprintf("%s/%s", mode, opt), func(t *testing.T) {
				opts := bfs.DefaultOptions()
				opts.Mode = mode
				opts.Opt = opt
				r := newTestRunner(t, scale, opts)
				res := r.RunBatch(roots)
				if res.TimeNs <= 0 || res.TEPS <= 0 {
					t.Fatalf("non-positive time/TEPS: %+v", res)
				}
				for l, root := range roots {
					wantLevel, _ := graph.ReferenceBFS(ref, root)
					got := laneLevelsOf(r, l, root)
					for v := range got {
						if got[v] != wantLevel[v] {
							t.Fatalf("lane %d root %d vertex %d: level %d, want %d",
								l, root, v, got[v], wantLevel[v])
						}
					}
					var wantVisited, wantEdges int64
					for v, lev := range wantLevel {
						if lev >= 0 {
							wantVisited++
							wantEdges += ref.Degree(int64(v))
						}
					}
					lr := res.Lanes[l]
					if lr.Visited != wantVisited {
						t.Errorf("lane %d: visited %d, want %d", l, lr.Visited, wantVisited)
					}
					if lr.TraversedEdges != wantEdges/2 {
						t.Errorf("lane %d: traversed edges %d, want %d", l, lr.TraversedEdges, wantEdges/2)
					}
				}
			})
		}
	}
}

// TestBatchBitIdenticalToBatchOne: the tentpole determinism claim — a
// root's parent tree in a full batch is byte-identical to the same
// root traversed alone, at every optimization level.
func TestBatchBitIdenticalToBatchOne(t *testing.T) {
	const scale = 12
	params := rmat.Graph500(scale)
	for _, opt := range []bfs.Opt{bfs.OptOriginal, bfs.OptShareAll, bfs.OptCompressedAllgather} {
		t.Run(opt.String(), func(t *testing.T) {
			opts := bfs.DefaultOptions()
			opts.Opt = opt
			r := newTestRunner(t, scale, opts)
			roots := params.Roots(16, r.HasEdgeGlobal)
			r.RunBatch(roots)
			batched := make([][]int64, len(roots))
			for l := range roots {
				batched[l] = r.LaneParents(l)
			}
			for l, root := range roots {
				r.RunBatch([]int64{root})
				solo := r.LaneParents(0)
				for v := range solo {
					if solo[v] != batched[l][v] {
						t.Fatalf("lane %d root %d vertex %d: batched parent %d, solo parent %d",
							l, root, v, batched[l][v], solo[v])
					}
				}
			}
		})
	}
}

// TestBatchAmortizesAllgathers: the headline perf property at test
// scale — one batch performs strictly fewer allgather rounds and takes
// strictly less virtual time than the same roots run one at a time.
func TestBatchAmortizesAllgathers(t *testing.T) {
	const scale = 12
	params := rmat.Graph500(scale)
	opts := bfs.DefaultOptions()
	opts.Opt = bfs.OptCompressedAllgather
	r := newTestRunner(t, scale, opts)
	roots := params.Roots(32, r.HasEdgeGlobal)

	batch := r.RunBatch(roots)
	var seqRounds int64
	var seqTime float64
	for _, root := range roots {
		res := r.RunBatch([]int64{root})
		seqRounds += res.AllgatherRounds
		seqTime += res.TimeNs
	}
	if batch.AllgatherRounds >= seqRounds {
		t.Errorf("batched rounds %d not < sequential rounds %d", batch.AllgatherRounds, seqRounds)
	}
	if batch.TimeNs >= seqTime {
		t.Errorf("batched time %g not < sequential time %g", batch.TimeNs, seqTime)
	}
}

// TestLaneDropEarlyTermination: lanes whose components exhaust early
// must drop out while the rest keep traversing, and a dropped lane's
// results must be unaffected by the survivors.
func TestLaneDropEarlyTermination(t *testing.T) {
	const scale = 12
	params := rmat.Graph500(scale)
	ref := graph.BuildGlobal(params, true)
	giant := params.Roots(1, ref.HasEdge)[0]
	// Find a root in a small component: its lane terminates levels
	// before the giant-component lane does.
	small := int64(-1)
	for v := int64(0); v < params.NumVertices(); v++ {
		if ref.HasEdge(v) && graph.ConnectedComponent(ref, v) < 64 {
			small = v
			break
		}
	}
	if small < 0 {
		t.Skip("no small component at this scale/seed")
	}
	opts := bfs.DefaultOptions()
	r := newTestRunner(t, scale, opts)
	res := r.RunBatch([]int64{giant, small})
	if res.Lanes[1].Levels >= res.Lanes[0].Levels {
		t.Errorf("small-component lane ran %d levels, giant lane %d — expected early drop",
			res.Lanes[1].Levels, res.Lanes[0].Levels)
	}
	if want := graph.ConnectedComponent(ref, small); res.Lanes[1].Visited != want {
		t.Errorf("small lane visited %d, want component size %d", res.Lanes[1].Visited, want)
	}
	// The dropped lane's tree is still the solo tree.
	batched := r.LaneParents(1)
	r.RunBatch([]int64{small})
	solo := r.LaneParents(0)
	for v := range solo {
		if solo[v] != batched[v] {
			t.Fatalf("vertex %d: dropped-lane parent %d, solo parent %d", v, batched[v], solo[v])
		}
	}
}

// TestSingleVertexLane: a lane whose root has edges only to itself-like
// minimal frontiers must terminate level 1 without disturbing others —
// exercised via a batch of one (smallest batch) plus repeats.
func TestBatchRepeatsAreBitIdentical(t *testing.T) {
	const scale = 12
	params := rmat.Graph500(scale)
	opts := bfs.DefaultOptions()
	opts.Opt = bfs.OptParAllgather
	r := newTestRunner(t, scale, opts)
	roots := params.Roots(16, r.HasEdgeGlobal)
	a := r.RunBatch(roots)
	pa := make([][]int64, len(roots))
	for l := range roots {
		pa[l] = r.LaneParents(l)
	}
	b := r.RunBatch(roots)
	if a.TimeNs != b.TimeNs || a.AllgatherRounds != b.AllgatherRounds ||
		a.TraversedEdges != b.TraversedEdges || a.Breakdown.Total() != b.Breakdown.Total() {
		t.Fatalf("repeat diverged: (%g, %d, %d) vs (%g, %d, %d)",
			a.TimeNs, a.AllgatherRounds, a.TraversedEdges,
			b.TimeNs, b.AllgatherRounds, b.TraversedEdges)
	}
	for l := range roots {
		again := r.LaneParents(l)
		for v := range again {
			if again[v] != pa[l][v] {
				t.Fatalf("lane %d vertex %d: parent changed across repeats", l, v)
			}
		}
	}
}

// TestDeterministicAcrossHostParallelism: batched virtual time must not
// depend on host scheduling, the simulator's core guarantee.
func TestDeterministicAcrossHostParallelism(t *testing.T) {
	const scale = 12
	params := rmat.Graph500(scale)
	run := func() (float64, float64, int64, int64) {
		opts := bfs.DefaultOptions()
		opts.Opt = bfs.OptCompressedAllgather
		r := newTestRunner(t, scale, opts)
		roots := params.Roots(16, r.HasEdgeGlobal)
		res := r.RunBatch(roots)
		return res.TimeNs, res.Breakdown.Total(), res.TraversedEdges, res.AllgatherRounds
	}
	prev := runtime.GOMAXPROCS(1)
	t1, b1, e1, g1 := run()
	runtime.GOMAXPROCS(4)
	t4, b4, e4, g4 := run()
	runtime.GOMAXPROCS(prev)
	if t1 != t4 || b1 != b4 || e1 != e4 || g1 != g4 {
		t.Fatalf("host parallelism leaked into results: (%g, %g, %d, %d) vs (%g, %g, %d, %d)",
			t1, b1, e1, g1, t4, b4, e4, g4)
	}
}

// TestLossyPlanComposition: a lossy-link fault plan must slow the batch
// down without changing any lane's parent tree.
func TestLossyPlanComposition(t *testing.T) {
	const scale = 12
	params := rmat.Graph500(scale)
	opts := bfs.DefaultOptions()

	clean := newTestRunner(t, scale, opts)
	roots := params.Roots(8, clean.HasEdgeGlobal)
	cleanRes := clean.RunBatch(roots)
	cleanParents := make([][]int64, len(roots))
	for l := range roots {
		cleanParents[l] = clean.LaneParents(l)
	}

	lossy := newTestRunner(t, scale, opts)
	if err := lossy.InjectFaults(fault.Lossy(42, 0.05)); err != nil {
		t.Fatal(err)
	}
	res := lossy.RunBatch(roots)
	if res.TimeNs <= cleanRes.TimeNs {
		t.Errorf("lossy batch (%g ns) not slower than clean (%g ns)", res.TimeNs, cleanRes.TimeNs)
	}
	if res.Xport.Retransmits == 0 {
		t.Error("lossy plan produced no retransmits")
	}
	for l := range roots {
		got := lossy.LaneParents(l)
		for v := range got {
			if got[v] != cleanParents[l][v] {
				t.Fatalf("lane %d vertex %d: loss changed the parent tree", l, v)
			}
		}
	}
}

// TestCrashedBatchReruns: a crash in the middle of a batch, transient or
// permanent, is survived by the chassis's rerun from the roots — the
// engine has no recovery code of its own. One fault is reported, the
// detection floor is charged to Recovery and lengthens the batch, and
// every lane's tree is bit-identical to the clean batch's.
func TestCrashedBatchReruns(t *testing.T) {
	const scale = 12
	params := rmat.Graph500(scale)
	clean := newTestRunner(t, scale, bfs.DefaultOptions())
	roots := params.Roots(8, clean.HasEdgeGlobal)
	cleanRes := clean.RunBatch(roots)
	want := make([][]int64, len(roots))
	for l := range roots {
		want[l] = clean.LaneParents(l)
	}
	for _, permanent := range []bool{false, true} {
		r := newTestRunner(t, scale, bfs.DefaultOptions())
		plan := fault.Plan{Crashes: []fault.Crash{{Rank: 3, AtNs: 0.5 * cleanRes.TimeNs, Permanent: permanent}}}
		if err := r.InjectFaults(plan); err != nil {
			t.Fatal(err)
		}
		res := r.RunBatch(roots)
		if len(res.Faults) != 1 || res.Faults[0].Permanent != permanent {
			t.Fatalf("permanent=%v: faults %+v, want one crash", permanent, res.Faults)
		}
		if res.TimeNs <= cleanRes.TimeNs || res.Breakdown.Ns[trace.Recovery] <= 0 || res.MTTRNs <= 0 {
			t.Errorf("permanent=%v: batch %v ns (clean %v), Recovery %v, MTTR %v: the rerun was not charged",
				permanent, res.TimeNs, cleanRes.TimeNs, res.Breakdown.Ns[trace.Recovery], res.MTTRNs)
		}
		for l := range roots {
			got, ref := res.Lanes[l], cleanRes.Lanes[l]
			if got.Levels != ref.Levels || got.Visited != ref.Visited || got.TraversedEdges != ref.TraversedEdges {
				t.Errorf("permanent=%v lane %d: %+v, clean %+v", permanent, l, got, ref)
			}
			if !slices.Equal(r.LaneParents(l), want[l]) {
				t.Errorf("permanent=%v lane %d: tree differs from the clean batch's", permanent, l)
			}
		}
	}
}

// TestValidateOptionsGates: the overlap level and hot spares are out of
// the batched engine's scope.
func TestValidateOptionsGates(t *testing.T) {
	o := bfs.DefaultOptions()
	o.Opt = bfs.OptOverlapAllgather
	if err := ValidateOptions(o); err == nil {
		t.Error("overlap level accepted")
	}
	o = bfs.DefaultOptions()
	o.SpareRanks = 1
	if err := ValidateOptions(o); err == nil {
		t.Error("spare ranks accepted")
	}
}

// TestSetupMatchesGlobal: the batched engine's kernel 1 is
// graph.BuildDistributed — its per-rank CSRs are the rows of the
// sequential global build, and its virtual construction time is the
// value pinned before kernel 1's host path was rebuilt.
func TestSetupMatchesGlobal(t *testing.T) {
	const scale = 12
	r := newTestRunner(t, scale, bfs.DefaultOptions())
	ref := graph.BuildGlobal(rmat.Graph500(scale), true)
	for _, csr := range r.CSRs() {
		for v := csr.Lo; v < csr.Hi; v++ {
			if got, want := csr.Neighbors(v), ref.Neighbors(v); !slices.Equal(got, want) {
				t.Fatalf("vertex %d: neighbours %v, want %v", v, got, want)
			}
		}
	}
	if want := 623097.9936047075; r.SetupNs != want {
		t.Errorf("SetupNs = %v, want %v", r.SetupNs, want)
	}
}
