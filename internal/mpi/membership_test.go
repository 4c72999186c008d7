package mpi

// Tests for the membership layer: epoch-numbered world views, parked
// spares, promotions, and the deterministic lease/heartbeat failure
// detector for permanent deaths.

import (
	"sync"
	"testing"

	"numabfs/internal/fault"
)

// liveRanks returns the ranks Run/TryRun schedules, in ascending order.
func liveRanks(w *World) []int {
	var out []int
	for r, ok := range w.live {
		if ok {
			out = append(out, r)
		}
	}
	return out
}

// ranSet runs body and records which ranks executed.
func ranSet(w *World) map[int]bool {
	var mu sync.Mutex
	ran := make(map[int]bool)
	w.Run(func(p *Proc) {
		p.Compute(10)
		p.Barrier()
		mu.Lock()
		ran[p.Rank()] = true
		mu.Unlock()
	})
	return ran
}

func TestParkExcludesSparesWithoutAdvancingEpoch(t *testing.T) {
	w := testWorld(t, 2) // 2 nodes x 4 ranks
	w.Park([]int{3, 7})  // last rank of each node
	if w.Epoch() != 0 {
		t.Fatalf("Park advanced the epoch to %d", w.Epoch())
	}
	if w.liveOnNode[0] != 3 || w.liveOnNode[1] != 3 || w.maxLivePPN != 3 {
		t.Fatalf("live counts %d/%d max %d, want 3/3/3", w.liveOnNode[0], w.liveOnNode[1], w.maxLivePPN)
	}
	ran := ranSet(w)
	if len(ran) != 6 || ran[3] || ran[7] {
		t.Fatalf("parked ranks scheduled: ran = %v", ran)
	}
}

// TestParkLastRankOfNodeDropsNodeFromBarrier: a node with no live rank
// left drops out of the barrier's inter-node rounds.
func TestParkLastRankOfNodeDropsNodeFromBarrier(t *testing.T) {
	w := testWorld(t, 2)
	w.Park([]int{4, 5, 6, 7})
	if w.liveNodes != 1 || w.liveOnNode[1] != 0 {
		t.Fatalf("node 1 still counted: nodes %d, on-node %d", w.liveNodes, w.liveOnNode[1])
	}
	ran := ranSet(w)
	if len(ran) != 4 {
		t.Fatalf("ran %v", ran)
	}
}

func TestPromoteSwapsSpareForDead(t *testing.T) {
	w := testWorld(t, 2)
	w.Park([]int{3, 7})
	w.Promote(3, 1)
	if w.Epoch() != 1 {
		t.Fatalf("epoch %d after promote, want 1", w.Epoch())
	}
	if !w.live[3] || w.live[1] {
		t.Fatal("promote did not swap liveness")
	}
	if w.liveOnNode[0] != 3 || w.maxLivePPN != 3 {
		t.Fatalf("populations changed: %d max %d", w.liveOnNode[0], w.maxLivePPN)
	}
	ran := ranSet(w)
	if ran[1] || !ran[3] || len(ran) != 6 {
		t.Fatalf("ran %v", ran)
	}
}

func TestMembershipMisusePanics(t *testing.T) {
	for name, f := range map[string]func(w *World){
		"double park":        func(w *World) { w.Park([]int{2}); w.Park([]int{2}) },
		"park dead":          func(w *World) { w.Park([]int{3}); w.Promote(3, 2); w.Park([]int{2}) },
		"promote live spare": func(w *World) { w.Promote(0, 2) },
		"promote dead again": func(w *World) { w.Park([]int{3, 7}); w.Promote(3, 2); w.Promote(7, 2) },
		"promote onto live":  func(w *World) { w.Park([]int{3}); w.Promote(3, 3) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			f(testWorld(t, 2))
		}()
	}
}

// TestShrunkenWorldStaysDeterministic: the rebuilt barriers over a
// world with ranks out of the schedule must yield identical virtual
// clocks on every run.
func TestShrunkenWorldStaysDeterministic(t *testing.T) {
	run := func() []float64 {
		w := testWorld(t, 2)
		w.Park([]int{2, 7})
		w.Run(func(p *Proc) {
			p.Compute(float64(10 * (p.Rank() + 1)))
			p.Barrier()
			p.Compute(5)
			p.NodeBarrier()
		})
		var clocks []float64
		for _, r := range liveRanks(w) {
			clocks = append(clocks, w.Proc(r).Clock())
		}
		return clocks
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("clock %d differs: %v vs %v", i, a, b)
		}
	}
}

// TestDetectionTimeLeaseExpiry: a permanent death at `at` is detected
// when the lease taken at the last heartbeat boundary expires — never
// before at + timeout.
func TestDetectionTimeLeaseExpiry(t *testing.T) {
	in, err := fault.NewInjector(fault.Plan{
		DetectTimeoutNs:   1000,
		HeartbeatPeriodNs: 400,
		Crashes:           []fault.Crash{{Rank: 0, AtNs: 900, Permanent: true}},
	}, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Last renewal before 900 is at 800; the lease expires at 1800.
	if got := in.DetectionTimeNs(900); got != 1800 {
		t.Fatalf("DetectionTimeNs(900) = %g, want 1800", got)
	}
	// A crash exactly on a beat renews first: detection a full timeout on.
	if got := in.DetectionTimeNs(800); got != 1800 {
		t.Fatalf("DetectionTimeNs(800) = %g, want 1800", got)
	}

	// Misconfigured period longer than the timeout: the floor keeps
	// detection after the death.
	in2, err := fault.NewInjector(fault.Plan{
		DetectTimeoutNs:   100,
		HeartbeatPeriodNs: 1000,
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := in2.DetectionTimeNs(950); got != 1050 {
		t.Fatalf("floored DetectionTimeNs(950) = %g, want 1050", got)
	}

	// Default period is a quarter of the timeout.
	in3, err := fault.NewInjector(fault.Plan{DetectTimeoutNs: 2000}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := in3.HeartbeatPeriodNs(); got != 500 {
		t.Fatalf("default HeartbeatPeriodNs = %g, want 500", got)
	}
}

// TestPermanentFlagTravelsThroughFaultError: TryRun surfaces the
// Permanent flag of the scheduled crash.
func TestPermanentFlagTravelsThroughFaultError(t *testing.T) {
	w := testWorld(t, 2)
	if err := w.InjectFaults(fault.Plan{
		Crashes: []fault.Crash{{Rank: 2, AtNs: 50, Permanent: true}},
	}); err != nil {
		t.Fatal(err)
	}
	err := w.TryRun(func(p *Proc) {
		p.Compute(100)
		p.Barrier()
	})
	f, ok := err.(*FaultError)
	if !ok || !f.Permanent || f.Rank != 2 {
		t.Fatalf("TryRun error = %v (%T), want permanent crash of rank 2", err, err)
	}
}
