package bfs

// End-to-end acceptance tests for OptOverlapAllgather: the pipelined
// level must compute bit-identical parent trees to the compressed level
// at every node count, stay deterministic across host core counts and
// segment counts, hide real communication (and hide none at any prior
// level), and compose with lossy-link transport — retransmission delays
// surface as exposed communication, never as a pipeline deadlock.

import (
	"fmt"
	"runtime"
	"testing"

	"numabfs/internal/fault"
	"numabfs/internal/machine"
	"numabfs/internal/rmat"
	"numabfs/internal/trace"
)

// runOptRunner is runOpt returning the runner too (for parent arrays).
func runOptRunner(t *testing.T, scale, nodes int, opts Options) (*Runner, RootResult) {
	t.Helper()
	params := rmat.Graph500(scale)
	r := setUp(t, testConfig(scale, nodes, 4), machine.PPN8Bind, params, opts)
	root := params.Roots(1, r.HasEdgeGlobal)[0]
	return r, r.RunRoot(root)
}

// sameParents fails the test if the two runners hold different trees.
func sameParents(t *testing.T, label string, a, b *Runner) {
	t.Helper()
	pa, pb := a.ParentArrays(), b.ParentArrays()
	for rank := range pa {
		for v := range pa[rank] {
			if pa[rank][v] != pb[rank][v] {
				t.Fatalf("%s: parent tree differs at rank %d vertex %d: %d vs %d",
					label, rank, v, pa[rank][v], pb[rank][v])
			}
		}
	}
}

// TestOverlapParentTreeIdentityAllNodeCounts: at every node count 1..16
// the pipelined level must produce the identical traversal to the
// compressed level — same parent trees, same visit counts, same level
// structure.
func TestOverlapParentTreeIdentityAllNodeCounts(t *testing.T) {
	const scale = 13 // >= 64 vertices per rank at 16 nodes x ppn 8
	for nodes := 1; nodes <= 16; nodes++ {
		rc, resC := runOptRunner(t, scale, nodes, optOptions(OptCompressedAllgather))
		ro, resO := runOptRunner(t, scale, nodes, optOptions(OptOverlapAllgather))
		label := fmt.Sprintf("nodes=%d", nodes)
		if resO.Visited != resC.Visited || resO.TraversedEdges != resC.TraversedEdges ||
			resO.Levels != resC.Levels {
			t.Fatalf("%s: traversal differs: %d/%d/%d vs %d/%d/%d", label,
				resO.Visited, resO.TraversedEdges, resO.Levels,
				resC.Visited, resC.TraversedEdges, resC.Levels)
		}
		if resO.RawCommBytes != resC.RawCommBytes {
			t.Errorf("%s: logical comm volume changed: %d vs %d — chunking must only re-encode, not move different data",
				label, resO.RawCommBytes, resC.RawCommBytes)
		}
		sameParents(t, label, ro, rc)
	}
}

// TestOverlapSegmentCountInvariance: the chunk count is a pure
// performance knob — every value must produce the identical traversal.
func TestOverlapSegmentCountInvariance(t *testing.T) {
	const scale, nodes = 13, 4
	rc, resC := runOptRunner(t, scale, nodes, optOptions(OptCompressedAllgather))
	for _, segs := range []int{1, 2, 4, 8, 256} {
		opts := optOptions(OptOverlapAllgather)
		opts.OverlapSegments = segs
		ro, resO := runOptRunner(t, scale, nodes, opts)
		label := fmt.Sprintf("segments=%d", segs)
		if resO.Visited != resC.Visited || resO.TraversedEdges != resC.TraversedEdges {
			t.Fatalf("%s: traversal differs: %d/%d vs %d/%d", label,
				resO.Visited, resO.TraversedEdges, resC.Visited, resC.TraversedEdges)
		}
		sameParents(t, label, ro, rc)
	}
}

// TestOverlapPhaseExactlyZeroBelowLevelSix: no prior level may ever
// report hidden or exposed overlap — the phase exists only for the
// pipelined collective.
func TestOverlapPhaseExactlyZeroBelowLevelSix(t *testing.T) {
	const scale, nodes = 12, 2
	for opt := OptOriginal; opt <= OptCompressedAllgather; opt++ {
		_, res := runOptRunner(t, scale, nodes, optOptions(opt))
		if res.Breakdown.Ns[trace.Overlap] != 0 {
			t.Errorf("%s: hidden overlap %g != 0", opt, res.Breakdown.Ns[trace.Overlap])
		}
		if res.Breakdown.OverlapExposedNs != 0 {
			t.Errorf("%s: exposed overlap %g != 0", opt, res.Breakdown.OverlapExposedNs)
		}
	}
}

// TestOverlapHidesCommunication: with at least two nodes the pipeline
// must attribute real hidden communication, and hiding it must not
// inflate the breakdown total (hidden time is concurrent, not
// additional).
func TestOverlapHidesCommunication(t *testing.T) {
	const scale, nodes = 13, 2
	_, res := runOptRunner(t, scale, nodes, optOptions(OptOverlapAllgather))
	if res.Breakdown.Ns[trace.Overlap] <= 0 {
		t.Fatalf("no hidden communication attributed: %v", res.Breakdown.Ns)
	}
	var wall float64
	for p := trace.Phase(0); p < trace.NumPhases; p++ {
		if p != trace.Overlap {
			wall += res.Breakdown.Ns[p]
		}
	}
	if res.Breakdown.Total() != wall {
		t.Errorf("Total() %g includes the Overlap phase (wall sum %g)", res.Breakdown.Total(), wall)
	}
}

// TestOverlapReducesTimeVsCompressed is the tentpole's acceptance check
// at unit scope: at 4 nodes the pipelined level must traverse the same
// graph in strictly less virtual time than the compressed level, with
// hidden communication accounting for the gain.
func TestOverlapReducesTimeVsCompressed(t *testing.T) {
	const scale, nodes = 16, 4
	comp := runOpt(t, scale, nodes, optOptions(OptCompressedAllgather))
	over := runOpt(t, scale, nodes, optOptions(OptOverlapAllgather))
	if over.Visited != comp.Visited || over.TraversedEdges != comp.TraversedEdges {
		t.Fatalf("overlap level changed the traversal: %+v vs %+v", over, comp)
	}
	if over.TimeNs >= comp.TimeNs {
		t.Errorf("overlap time %.0f ns not below compressed %.0f ns", over.TimeNs, comp.TimeNs)
	}
	if over.Breakdown.Ns[trace.Overlap] <= 0 {
		t.Errorf("no hidden communication: %v", over.Breakdown.Ns)
	}
}

// TestOverlapDeterministicAcrossHostParallelism: the pipelined level's
// virtual times and trees must be bit-identical across repeats and host
// core counts.
func TestOverlapDeterministicAcrossHostParallelism(t *testing.T) {
	const scale = 12
	params := rmat.Graph500(scale)
	opts := optOptions(OptOverlapAllgather)
	opts.OverlapSegments = 4

	run := func() string {
		r, err := NewRunner(testConfig(scale, 2, 4), machine.PPN8Bind, params, opts)
		if err != nil {
			t.Fatal(err)
		}
		r.Setup()
		root := params.Roots(1, r.HasEdgeGlobal)[0]
		res := r.RunRoot(root)
		if res.Breakdown.Ns[trace.Overlap] <= 0 {
			t.Fatal("pipelined run hid no communication")
		}
		return signature(r, res)
	}
	prev := runtime.GOMAXPROCS(1)
	s1 := run()
	repeat := run()
	runtime.GOMAXPROCS(4)
	s4 := run()
	runtime.GOMAXPROCS(prev)
	if s1 != repeat {
		t.Fatalf("pipelined run not repeatable:\n%.160s...\n%.160s...", s1, repeat)
	}
	if s1 != s4 {
		t.Fatalf("host parallelism leaked into pipelined results:\nGOMAXPROCS=1 %.160s...\nGOMAXPROCS=4 %.160s...", s1, s4)
	}
}

// TestOverlapUnderLoss: 5% loss on every link must not deadlock the
// pipeline; the run completes with the identical tree, real
// retransmits, and the transport's delays surfacing as exposed (not
// hidden) communication.
func TestOverlapUnderLoss(t *testing.T) {
	const scale = 12
	params := rmat.Graph500(scale)
	opts := optOptions(OptOverlapAllgather)

	clean, cleanRes := runOptRunner(t, scale, 2, opts)

	r := setUp(t, testConfig(scale, 2, 4), machine.PPN8Bind, params, opts)
	if err := r.InjectFaults(fault.Lossy(9, 0.05)); err != nil {
		t.Fatal(err)
	}
	res := r.RunRoot(cleanRes.Root)
	if res.TEPS <= 0 {
		t.Fatalf("lossy pipelined run did not finish: %+v", res)
	}
	if res.Xport.Retransmits == 0 {
		t.Fatalf("5%% loss produced no transport work: %+v", res.Xport)
	}
	if res.Breakdown.Ns[trace.Xport] <= 0 {
		t.Fatalf("no transport stall in breakdown under loss: %v", res.Breakdown.Ns)
	}
	if res.Visited != cleanRes.Visited || res.TraversedEdges != cleanRes.TraversedEdges {
		t.Fatalf("traversal differs under loss: %d/%d vs %d/%d",
			res.Visited, res.TraversedEdges, cleanRes.Visited, cleanRes.TraversedEdges)
	}
	sameParents(t, "lossy", r, clean)
	if res.Breakdown.OverlapExposedNs <= cleanRes.Breakdown.OverlapExposedNs {
		t.Errorf("retransmission delays did not surface as exposed comm: lossy %.0f <= clean %.0f",
			res.Breakdown.OverlapExposedNs, cleanRes.Breakdown.OverlapExposedNs)
	}
}

// TestOverlapComposesWithCrashRecovery: a mid-run rank crash under the
// pipelined level must rerun from the root to the same tree.
func TestOverlapComposesWithCrashRecovery(t *testing.T) {
	const scale = 12
	params := rmat.Graph500(scale)
	opts := optOptions(OptOverlapAllgather)

	clean, cleanRes := runOptRunner(t, scale, 2, opts)

	r := setUp(t, testConfig(scale, 2, 4), machine.PPN8Bind, params, opts)
	plan := fault.Plan{Crashes: []fault.Crash{{Rank: 3, AtNs: cleanRes.TimeNs / 2}}}
	if err := r.InjectFaults(plan); err != nil {
		t.Fatal(err)
	}
	res := r.RunRoot(cleanRes.Root)
	if len(res.Faults) == 0 {
		t.Fatalf("scheduled crash at %.0f ns never fired (run took %.0f ns)",
			cleanRes.TimeNs/2, res.TimeNs)
	}
	if res.Visited != cleanRes.Visited || res.TraversedEdges != cleanRes.TraversedEdges {
		t.Fatalf("traversal differs after recovery: %d/%d vs %d/%d",
			res.Visited, res.TraversedEdges, cleanRes.Visited, cleanRes.TraversedEdges)
	}
	sameParents(t, "crash-recovery", r, clean)
}
