package bfs

// Allocation regression for the per-root hot path, alongside
// internal/collective/alloc_test.go: steady-state BFS iterations reuse
// the engine's scratch — frontier queues, the pipelined collective's
// forwarding slots and codec slots — so per-root allocations must not
// grow root over root, and an armed crash plan must not add any.

import (
	"testing"

	"numabfs/internal/fault"
	"numabfs/internal/machine"
	"numabfs/internal/rmat"
)

// rootAllocs measures steady-state allocations of one RunRoot, with
// construction and scratch warm-up (two full iterations) excluded from
// the measured region. AllocsPerRun pins GOMAXPROCS to 1, so the count
// is stable run to run.
func rootAllocs(t *testing.T, opts Options, plan *fault.Plan) float64 {
	t.Helper()
	const scale, nodes = 12, 2
	params := rmat.Graph500(scale)
	r := setUp(t, testConfig(scale, nodes, 4), machine.PPN8Bind, params, opts)
	if plan != nil {
		if err := r.InjectFaults(*plan); err != nil {
			t.Fatal(err)
		}
	}
	root := params.Roots(1, r.HasEdgeGlobal)[0]
	r.RunRoot(root)
	r.RunRoot(root)
	return testing.AllocsPerRun(5, func() { r.RunRoot(root) })
}

// TestRootAllocsFlatAcrossRoots: once scratch is warm, re-measuring the
// same iteration must not find more allocations — nothing per-root may
// grow with the number of roots already run, at any of the allgather
// levels including the pipelined one at several depths.
func TestRootAllocsFlatAcrossRoots(t *testing.T) {
	for _, tc := range []struct {
		name string
		opt  Opt
		segs int
	}{
		{"compressed", OptCompressedAllgather, 0},
		{"overlap-segs2", OptOverlapAllgather, 2},
		{"overlap-segs8", OptOverlapAllgather, 8},
	} {
		opts := optOptions(tc.opt)
		opts.OverlapSegments = tc.segs
		first := rootAllocs(t, opts, nil)
		again := rootAllocs(t, opts, nil)
		if again > first {
			t.Errorf("%s: per-root allocations grew across roots: %g then %g", tc.name, first, again)
		}
	}
}

// TestRootAllocsOriginalBounded: the unoptimized level is the
// message-count-bound one — a private ring allgather of np-1 steps plus a
// pairwise alltoallv per level — so it is where a per-message allocation
// shows. With typed message payloads, pooled message cells, cached
// node layouts and allocation-free omp regions a warm root allocates 10
// objects on this 8-rank world (74 while every omp region and node
// layout was allocated afresh, 831 while every ring step boxed its
// segment), and the count must not grow root over root.
func TestRootAllocsOriginalBounded(t *testing.T) {
	opts := optOptions(OptOriginal)
	first := rootAllocs(t, opts, nil)
	again := rootAllocs(t, opts, nil)
	if again > first {
		t.Errorf("per-root allocations grew across roots: %g then %g", first, again)
	}
	const bound = 16
	if first > bound {
		t.Errorf("OptOriginal root allocates %g objects, want <= %d — a per-message allocation is back", first, bound)
	}
}

// TestArmedCrashPlanCostsNothing: a crash plan whose crash never fires
// arms recovery and nothing else — the traversal is bit-identical to
// the unplanned one.
func TestArmedCrashPlanCostsNothing(t *testing.T) {
	const scale = 12
	opts := optOptions(OptCompressedAllgather)
	params := rmat.Graph500(scale)
	plan := fault.Plan{Crashes: []fault.Crash{{Rank: 1, AtNs: 1e18}}}
	base := setUp(t, testConfig(scale, 2, 4), machine.PPN8Bind, params, opts)
	root := params.Roots(1, base.HasEdgeGlobal)[0]
	want := signature(base, base.RunRoot(root))
	armed := setUp(t, testConfig(scale, 2, 4), machine.PPN8Bind, params, opts)
	if err := armed.InjectFaults(plan); err != nil {
		t.Fatal(err)
	}
	if got := signature(armed, armed.RunRoot(root)); got != want {
		t.Fatalf("an armed crash plan moved the result:\nplan    %.160s...\nno plan %.160s...", got, want)
	}
}

// TestArmedCrashPlanAddsNoAllocs: a warm root under a crash plan whose
// crash never fires allocates within the injector's bookkeeping of the
// plan-free root.
func TestArmedCrashPlanAddsNoAllocs(t *testing.T) {
	opts := optOptions(OptCompressedAllgather)
	plan := fault.Plan{Crashes: []fault.Crash{{Rank: 1, AtNs: 1e18}}}
	// Slack for the injector's per-run bookkeeping; a per-level
	// allocation would exceed it by orders of magnitude.
	const slack = 16
	if a, b := rootAllocs(t, opts, &plan), rootAllocs(t, opts, nil); a > b+slack {
		t.Errorf("armed run allocates %g per root vs %g without a plan", a, b)
	}
}

// TestTwoTransientCrashesKeepTree: a root that recovers twice (two
// transient crashes on different ranks, the second one inside the
// rerun) reruns from the root each time and ends on the clean tree.
func TestTwoTransientCrashesKeepTree(t *testing.T) {
	const scale, nodes = 12, 2
	opts := optOptions(OptCompressedAllgather)
	params := rmat.Graph500(scale)

	probe := setUp(t, testConfig(scale, nodes, 4), machine.PPN8Bind, params, opts)
	root := params.Roots(1, probe.HasEdgeGlobal)[0]
	clean := probe.RunRoot(root)

	r := setUp(t, testConfig(scale, nodes, 4), machine.PPN8Bind, params, opts)
	plan := fault.Plan{Crashes: []fault.Crash{
		{Rank: 1, AtNs: 0.3 * clean.TimeNs},
		{Rank: 3, AtNs: 0.65 * clean.TimeNs},
	}}
	if err := r.InjectFaults(plan); err != nil {
		t.Fatal(err)
	}
	res := r.RunRoot(root)
	if len(res.Faults) != 2 || res.Epoch != 0 {
		t.Fatalf("recovered %d times on epoch %d, want 2 on epoch 0 (plan %+v)", len(res.Faults), res.Epoch, plan.Crashes)
	}
	if res.Visited != clean.Visited || res.TraversedEdges != clean.TraversedEdges {
		t.Fatalf("twice-recovered traversal differs: %d/%d vs clean %d/%d",
			res.Visited, res.TraversedEdges, clean.Visited, clean.TraversedEdges)
	}
	sameParents(t, "two crashes", r, probe)
}

// TestRootParksOverlapBounded: a warm top-rung root on 128 ranks
// replays its pipelined in_queue rings at their subgroups' gates, so a
// rank parks about once per collective call rather than once per chunk
// step of the segment ring: 4 059 parks measured, at GOMAXPROCS 1 and 2,
// against 9 459 and 10 434 while the rings ran as messages.
func TestRootParksOverlapBounded(t *testing.T) {
	const scale = 13
	params := rmat.Graph500(scale)
	r := setUp(t, testConfig(scale, 16, 8), machine.PPN8Bind, params, optOptions(OptOverlapAllgather))
	root := params.Roots(1, r.HasEdgeGlobal)[0]
	r.RunRoot(root)
	before := r.W.Parks()
	r.RunRoot(root)
	parks := r.W.Parks() - before
	const bound = 5000
	if parks > bound {
		t.Errorf("warm overlap root on 128 ranks parked %d times, want <= %d", parks, bound)
	}
	t.Logf("warm overlap root on 128 ranks: %d parks", parks)
}
