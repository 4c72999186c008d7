package bfs

// End-to-end acceptance tests for the reliable transport: under any
// seeded loss plan the BFS completes with the identical parent tree and
// a deterministic (repeatable, GOMAXPROCS-independent) virtual time,
// and a plan that only tunes the transport without declaring loss is an
// exact identity.

import (
	"runtime"
	"testing"

	"numabfs/internal/fault"
	"numabfs/internal/machine"
	"numabfs/internal/rmat"
	"numabfs/internal/trace"
)

// TestLossPlanPreservesResults: with drop/dup/reorder/corrupt active on
// every link, the run must cost more virtual time and real retransmits —
// and change nothing about what was computed.
func TestLossPlanPreservesResults(t *testing.T) {
	const scale = 12
	params := rmat.Graph500(scale)
	rBase, base := runWithPlan(t, testConfig(scale, 2, 4), params, nil)

	for _, opt := range []Opt{OptOriginal, OptCompressedAllgather} {
		r := setUp(t, testConfig(scale, 2, 4), machine.PPN8Bind, params, optOptions(opt))
		if err := r.InjectFaults(fault.Lossy(9, 0.05)); err != nil {
			t.Fatal(err)
		}
		res := r.RunRoot(base.Root)

		if res.TEPS <= 0 {
			t.Fatalf("%s: lossy run did not finish: %+v", opt, res)
		}
		if res.Xport.Retransmits == 0 || res.Xport.Acks == 0 {
			t.Fatalf("%s: 5%% loss produced no transport work: %+v", opt, res.Xport)
		}
		if res.Xport.OverheadBytes <= 0 || res.Xport.OverheadBytes >= res.CommBytes {
			t.Fatalf("%s: overhead %d outside (0, comm %d)", opt, res.Xport.OverheadBytes, res.CommBytes)
		}
		if res.TraversedEdges != base.TraversedEdges || res.Visited != base.Visited {
			t.Fatalf("%s: traversal differs under loss: %d/%d vs %d/%d",
				opt, res.TraversedEdges, res.Visited, base.TraversedEdges, base.Visited)
		}
		for rank, pa := range r.ParentArrays() {
			for v, p := range pa {
				if p != rBase.ParentArrays()[rank][v] {
					t.Fatalf("%s: parent tree differs at rank %d vertex %d: %d vs %d",
						opt, rank, v, p, rBase.ParentArrays()[rank][v])
				}
			}
		}
	}

	// The baseline (OptOriginal) lossy run must cost more virtual time
	// than the clean one.
	r := setUp(t, testConfig(scale, 2, 4), machine.PPN8Bind, params, DefaultOptions())
	if err := r.InjectFaults(fault.Lossy(9, 0.05)); err != nil {
		t.Fatal(err)
	}
	res := r.RunRoot(base.Root)
	if res.TimeNs <= base.TimeNs {
		t.Fatalf("loss cost no time: %g vs clean %g", res.TimeNs, base.TimeNs)
	}
	// The transport's stall is carved out of the comm phases into its
	// own breakdown entry; clean runs never charge it.
	if res.Breakdown.Ns[trace.Xport] <= 0 {
		t.Fatalf("no transport stall in breakdown under loss: %v", res.Breakdown.Ns)
	}
	if base.Breakdown.Ns[trace.Xport] != 0 {
		t.Fatalf("clean run charged transport stall: %g", base.Breakdown.Ns[trace.Xport])
	}
}

// optOptions returns DefaultOptions at the given optimization level.
func optOptions(o Opt) Options {
	opts := DefaultOptions()
	opts.Opt = o
	return opts
}

// TestLossDeterministicAcrossHostParallelism: the transport's stateless
// draws must make lossy runs bit-identical across repeats and host core
// counts.
func TestLossDeterministicAcrossHostParallelism(t *testing.T) {
	const scale = 12
	params := rmat.Graph500(scale)
	plan := fault.Lossy(42, 0.05)
	plan.JitterMaxNs = 200 // loss and jitter together

	run := func() string {
		p := plan
		r, res := runWithPlan(t, testConfig(scale, 2, 4), params, &p)
		if res.Xport.Retransmits == 0 {
			t.Fatal("loss plan produced no retransmits")
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
		t.Fatalf("lossy run not repeatable:\n%.160s...\n%.160s...", s1, repeat)
	}
	if s1 != s4 {
		t.Fatalf("host parallelism leaked into lossy results:\nGOMAXPROCS=1 %.160s...\nGOMAXPROCS=4 %.160s...", s1, s4)
	}
}
