package bfs

// Allocation regression for the per-root hot path, alongside
// internal/collective/alloc_test.go: steady-state BFS iterations reuse
// the engine's scratch — frontier queues, the pipelined collective's
// forwarding slots and codec slots, and the checkpoint generations — so
// per-root allocations must not grow root over root, and checkpointing
// every level must recycle its two generations instead of allocating
// fresh snapshots.

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
// shows. With typed message payloads and pooled message cells a warm
// root allocates only per-level tables (383 objects measured on this
// 8-rank world; 407 while every top-down level took a fresh alltoallv
// result table, 831 while every ring step boxed its segment), and the
// count must not grow root over root.
func TestRootAllocsOriginalBounded(t *testing.T) {
	opts := optOptions(OptOriginal)
	first := rootAllocs(t, opts, nil)
	again := rootAllocs(t, opts, nil)
	if again > first {
		t.Errorf("per-root allocations grew across roots: %g then %g", first, again)
	}
	const bound = 460
	if first > bound {
		t.Errorf("OptOriginal root allocates %g objects, want <= %d — a per-message allocation is back", first, bound)
	}
}

// TestCheckpointAllocsPooled: with an armed-but-never-firing crash plan
// the engine checkpoints at every level boundary; the two generations
// must come from the rank's pool, so the steady-state per-root count
// stays within a few allocations of the uncheckpointed run.
func TestCheckpointAllocsPooled(t *testing.T) {
	opts := optOptions(OptCompressedAllgather)
	base := rootAllocs(t, opts, nil)
	plan := fault.Plan{Crashes: []fault.Crash{{Rank: 1, AtNs: 1e18}}}
	ck := rootAllocs(t, opts, &plan)
	// Slack for the injector's per-run bookkeeping; a per-level snapshot
	// allocation would exceed it by orders of magnitude.
	const slack = 16
	if ck > base+slack {
		t.Errorf("checkpointed run allocates %g per root vs %g uncheckpointed — generations not pooled", ck, base)
	}
}

// TestCheckpointPoolSurvivesTwoRecoveries: a root that recovers twice
// (two transient crashes on different ranks) must keep recycling its two
// checkpoint generations through both attempts — the pool stays bounded,
// no generation is referenced twice (a recycled-while-live snapshot
// would alias the restore), and later roots do not grow the pool.
func TestCheckpointPoolSurvivesTwoRecoveries(t *testing.T) {
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
	if len(res.Faults) != 2 {
		t.Fatalf("recovered %d times, want 2 (plan %+v)", len(res.Faults), plan.Crashes)
	}
	if res.Visited != clean.Visited || res.TraversedEdges != clean.TraversedEdges {
		t.Fatalf("twice-recovered traversal differs: %d/%d vs clean %d/%d",
			res.Visited, res.TraversedEdges, clean.Visited, clean.TraversedEdges)
	}

	countAndCheck := func(when string) []int {
		sizes := make([]int, len(r.states))
		for i, rs := range r.states {
			seen := make(map[*checkpoint]bool)
			total := 0
			for _, ck := range append([]*checkpoint{rs.ckptCur, rs.ckptPrev}, rs.ckptPool...) {
				if ck == nil {
					continue
				}
				if seen[ck] {
					t.Fatalf("%s: rank state %d holds the same generation twice", when, i)
				}
				seen[ck] = true
				total++
			}
			// Two live generations plus at most one parked recycle.
			if total > 3 {
				t.Errorf("%s: rank state %d owns %d checkpoint generations, want <= 3", when, i, total)
			}
			sizes[i] = total
		}
		return sizes
	}
	after := countAndCheck("after two recoveries")

	// Later roots (crashes disarmed, plan still armed enough to keep
	// checkpointing on) reuse the same generations: the pool must not grow.
	r.RunRoot(root)
	r.RunRoot(root)
	later := countAndCheck("after later roots")
	for i := range later {
		if later[i] > after[i] {
			t.Errorf("rank state %d grew its generation count %d -> %d across roots", i, after[i], later[i])
		}
	}
}
