package mpi

// Abort-path tests: one rank failing must release every partner blocked
// in communication — these paths are load-bearing under rank-crash
// injection (internal/fault), where a scheduled crash removes one rank
// and the others end up in rendezvous or barriers it will never
// complete. Each test's TryRun
// return doubles as the liveness assertion: TryRun only returns after
// every rank goroutine has exited, so a hung partner is a test timeout.

import (
	"runtime"
	"strings"
	"testing"

	"numabfs/internal/fault"
	"numabfs/internal/obs"
)

func TestAbortReleasesBlockedRecv(t *testing.T) {
	w := testWorld(t, 1)
	err := w.TryRun(func(p *Proc) {
		switch p.Rank() {
		case 0:
			p.Recv(1, 1) // rank 1 never sends
		case 1:
			panic("boom")
		default:
			p.Recv(1, 2) // more partners of the failed rank
		}
	})
	if err == nil || !strings.Contains(err.Error(), "rank 1") {
		t.Fatalf("TryRun = %v, want rank 1 panic", err)
	}
}

func TestAbortReleasesBlockedSendAndPost(t *testing.T) {
	w := testWorld(t, 1)
	err := w.TryRun(func(p *Proc) {
		switch p.Rank() {
		case 0:
			// The Isend fills the one slot to rank 1; the Send
			// then blocks inside post, the Isend's Wait inside await.
			// Neither is ever matched.
			req := p.Isend(1, 1, 8, nil, 1)
			p.Send(1, 2, 8, nil, 1)
			req.Wait()
		case 1:
			p.Recv(2, 3) // blocks in take; rank 2 never sends
		case 2:
			panic("boom")
		}
	})
	if err == nil || !strings.Contains(err.Error(), "rank 2") {
		t.Fatalf("TryRun = %v, want rank 2 panic", err)
	}
}

func TestAbortReleasesBarriers(t *testing.T) {
	w := testWorld(t, 2)
	err := w.TryRun(func(p *Proc) {
		switch {
		case p.Rank() == 3:
			panic("boom")
		case p.Rank()%2 == 0:
			p.Barrier() // never completes: rank 3 is gone
		default:
			p.NodeBarrier()
		}
	})
	if err == nil || !strings.Contains(err.Error(), "rank 3") {
		t.Fatalf("TryRun = %v, want rank 3 panic", err)
	}
}

func TestAbortReleasesSendRecvRing(t *testing.T) {
	w := testWorld(t, 2)
	np := w.NumProcs()
	err := w.TryRun(func(p *Proc) {
		if p.Rank() == np-1 {
			panic("boom")
		}
		// A ring exchange that can never complete without the last rank.
		p.SendRecv((p.Rank()+1)%np, 1, 8, nil, (p.Rank()+np-1)%np, 1, 1)
	})
	if err == nil || !strings.Contains(err.Error(), "rank 7") {
		t.Fatalf("TryRun = %v, want rank 7 panic", err)
	}
}

func TestTryRunReturnsFaultError(t *testing.T) {
	w := testWorld(t, 1)
	if err := w.InjectFaults(fault.Plan{Crashes: []fault.Crash{{Rank: 2, AtNs: 100}}}); err != nil {
		t.Fatal(err)
	}
	err := w.TryRun(func(p *Proc) {
		p.Compute(1e6)
		p.Barrier()
	})
	f, ok := err.(*FaultError)
	if !ok {
		t.Fatalf("TryRun = %v (%T), want *FaultError", err, err)
	}
	if f.Rank != 2 || f.AtNs != 100 {
		t.Fatalf("fault = %+v, want rank 2 at 100", f)
	}
	// The crash truncates the compute phase: the dead rank's clock lands
	// on the crash time, not the end of the phase it never finished.
	if got := w.Proc(2).Clock(); got != 100 {
		t.Errorf("crashed rank clock = %g, want 100", got)
	}
}

// TestTryRunPicksEarliestFaultDeterministically: when several crashes
// can fire in one attempt the reported fault must be the earliest
// virtual time, ties broken by rank — never whichever rank goroutine the
// host scheduler happened to run, or unwind, first.
func TestTryRunPicksEarliestFaultDeterministically(t *testing.T) {
	for _, tc := range []struct {
		name    string
		crashes []fault.Crash
		body    func(p *Proc)
		want    fault.Crash
	}{
		// All three ranks reach their crash time inside the same Compute.
		{"same-compute",
			[]fault.Crash{{Rank: 3, AtNs: 50}, {Rank: 1, AtNs: 50}, {Rank: 0, AtNs: 70}},
			func(p *Proc) { p.Compute(1e6) },
			fault.Crash{Rank: 1, AtNs: 50}},
		// The later crash fires first on the host, with rank 0 already
		// blocked on each crashing rank, and the earlier one has a
		// transfer to complete before its Compute: a job brought down by
		// the first crash to fire unwinds ranks 3 and 1 in that transfer
		// and never sees the crash at 50.
		{"later-crash-fires-first",
			[]fault.Crash{{Rank: 1, AtNs: 50}, {Rank: 2, AtNs: 60}},
			func(p *Proc) {
				switch p.Rank() {
				case 0:
					p.Recv(1, 1)
					p.Recv(2, 1)
				case 1:
					for i := 0; i < 5000; i++ {
						runtime.Gosched()
					}
					p.Send(3, 2, 8, nil, 1)
					p.Compute(100)
				case 2:
					p.Compute(100)
				case 3:
					p.Recv(1, 2)
				}
			},
			fault.Crash{Rank: 1, AtNs: 50}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			atProcs(t, func(t *testing.T) {
				for i := 0; i < 50; i++ {
					w := testWorld(t, 1)
					if err := w.InjectFaults(fault.Plan{Crashes: tc.crashes}); err != nil {
						t.Fatal(err)
					}
					err := w.TryRun(tc.body)
					f, ok := err.(*FaultError)
					if !ok || f.Rank != tc.want.Rank || f.AtNs != tc.want.AtNs {
						t.Fatalf("round %d: TryRun = %v, want rank %d at %g", i, err, tc.want.Rank, tc.want.AtNs)
					}
				}
			})
		})
	}
}

func TestProgrammingBugOutranksConcurrentFault(t *testing.T) {
	w := testWorld(t, 1)
	if err := w.InjectFaults(fault.Plan{Crashes: []fault.Crash{{Rank: 1, AtNs: 0}}}); err != nil {
		t.Fatal(err)
	}
	err := w.TryRun(func(p *Proc) {
		switch p.Rank() {
		case 0:
			panic("boom")
		default:
			p.Compute(10) // rank 1's scheduled crash fires here
		}
	})
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("TryRun = %v, want the rank 0 bug, not the rank 1 fault", err)
	}
}

func TestWorldReusableAfterAbort(t *testing.T) {
	w := testWorld(t, 2)
	err := w.TryRun(func(p *Proc) {
		switch p.Rank() {
		case 0:
			// Leave a posted message behind in rank 1's slot.
			p.Isend(1, 9, 8, nil, 1)
			p.Barrier()
		case 5:
			panic("boom")
		default:
			p.Barrier()
		}
	})
	if err == nil {
		t.Fatal("first attempt should fail")
	}
	// The next attempt reuses the same world: the abort flag is
	// re-armed, the half-arrived barrier is rebuilt and the orphaned
	// message is drained, so fresh sends and barriers work.
	w.PrepareRecovery()
	err = w.TryRun(func(p *Proc) {
		switch p.Rank() {
		case 0:
			p.Send(1, 1, 8, []uint64{7}, 1)
		case 1:
			if m := p.Recv(0, 1); m.Tag != 1 {
				t.Errorf("stale message leaked into retry: %+v", m)
			}
		}
		p.Barrier()
		p.NodeBarrier()
	})
	if err != nil {
		t.Fatalf("retry after abort: %v", err)
	}
}

func TestCrashRecoveryDisarm(t *testing.T) {
	w := testWorld(t, 1)
	if err := w.InjectFaults(fault.Plan{Crashes: []fault.Crash{{Rank: 0, AtNs: 5}}}); err != nil {
		t.Fatal(err)
	}
	body := func(p *Proc) {
		p.Compute(10)
		p.Barrier()
	}
	f, ok := w.TryRun(body).(*FaultError)
	if !ok {
		t.Fatal("first attempt should crash")
	}
	w.Injector().Disarm(f.Rank)
	w.PrepareRecovery()
	if err := w.TryRun(body); err != nil {
		t.Fatalf("disarmed retry: %v", err)
	}
}

// TestBlockingSendCountedAtPost: a blocking send is an Isend and its
// Wait, so the obs counters take it at its post, as they take an Isend —
// also when its receiver crashes and the attempt fails with the send
// unanswered. The counters outlive the failed attempt.
func TestBlockingSendCountedAtPost(t *testing.T) {
	w := testWorld(t, 1)
	if err := w.InjectFaults(fault.Plan{Crashes: []fault.Crash{{Rank: 1, AtNs: 0}}}); err != nil {
		t.Fatal(err)
	}
	rec := obs.NewRecorder()
	w.AttachObs(rec.NewSession("crash"))
	err := w.TryRun(func(p *Proc) {
		switch p.Rank() {
		case 0:
			p.Send(1, 1, 64, nil, 1)
		case 1:
			p.Recv(0, 1) // crashes at its post
		}
	})
	if _, ok := err.(*FaultError); !ok {
		t.Fatalf("TryRun = %v, want a *FaultError", err)
	}
	c := rec.Dump().Sessions[0].Ranks[0].Comm
	var msgs, bytes int64
	for h := range c.Msgs {
		msgs, bytes = msgs+c.Msgs[h], bytes+c.Bytes[h]
	}
	if msgs != 1 || bytes != 64 {
		t.Fatalf("rank 0 counted %d msgs, %d bytes; want the aborted send: 1, 64", msgs, bytes)
	}
}

// TestBarrierHierarchicalPricing pins the bugfixed barrier cost model: a
// dissemination barrier on a NUMA cluster combines within the node over
// shared memory first, so only ceilLog2(nodes) rounds pay the inter-node
// alpha; the ceilLog2(ppn) intra-node rounds pay the (much cheaper)
// intra-node alpha. The old model charged all ceilLog2(np) rounds at
// inter-node alpha.
func TestBarrierHierarchicalPricing(t *testing.T) {
	w := testWorld(t, 4) // 4 nodes x 4 ranks
	w.Run(func(p *Proc) { p.Barrier() })
	cfg := w.Config()
	want := 2*cfg.IntraNodeAlphaNs + 2*cfg.InterNodeAlphaNs // ceilLog2(4)=2 both
	for r := 0; r < w.NumProcs(); r++ {
		if got := w.Proc(r).Clock(); got != want {
			t.Fatalf("rank %d clock = %g, want %g", r, got, want)
		}
	}

	// Single node: zero inter-node rounds — the barrier must not touch
	// the network at all (this is what keeps one-node results identical
	// to the pre-fix model).
	w1 := testWorld(t, 1)
	w1.Run(func(p *Proc) { p.Barrier() })
	want1 := 2 * w1.Config().IntraNodeAlphaNs
	if got := w1.Proc(0).Clock(); got != want1 {
		t.Fatalf("single-node barrier clock = %g, want %g (no inter-node alpha)", got, want1)
	}
}

// TestInjectFaultsValidatesPlanAsWritten: the world adds its weak node
// to a plan without rewriting the rest, so Validate sees what the caller
// wrote — a negative jitter bound and a rank that crashes twice are
// rejected here exactly as fault.NewInjector rejects them. The weak
// node's event goes first, and the caller's slices are never written.
func TestInjectFaultsValidatesPlanAsWritten(t *testing.T) {
	w := testWorld(t, 2)
	w.cfg.WeakNode, w.cfg.WeakNodeBWFactor = 1, 0.8
	for _, tc := range []struct {
		name string
		plan fault.Plan
	}{
		{"negative jitter", fault.Plan{JitterMaxNs: -5}},
		{"rank crashes twice", fault.Plan{Crashes: []fault.Crash{
			{Rank: 1, AtNs: 100}, {Rank: 1, AtNs: 50, Permanent: true},
		}}},
	} {
		if _, err := fault.NewInjector(tc.plan, w.NumProcs()); err == nil {
			t.Errorf("%s: NewInjector accepted the plan", tc.name)
		}
		if err := w.InjectFaults(tc.plan); err == nil {
			t.Errorf("%s: InjectFaults accepted the plan", tc.name)
		}
	}

	bw := make([]fault.BWEvent, 2, 4)
	bw[0] = fault.BWEvent{Node: -1, Src: 0, Dst: 1, Factor: 0.1}
	bw[1] = fault.BWEvent{Node: 0, Src: -1, Dst: -1, Factor: 0.3}
	spare := bw[:4]
	if err := w.InjectFaults(fault.Plan{BW: bw}); err != nil {
		t.Fatal(err)
	}
	if spare[2] != (fault.BWEvent{}) || spare[3] != (fault.BWEvent{}) || bw[0].Factor != 0.1 {
		t.Errorf("InjectFaults wrote the caller's BW slice: %+v", spare)
	}
	// Factors multiply in plan order, weak node first.
	weak, a, b := 0.8, 0.1, 0.3
	if got, want := w.Injector().LinkFactor(0, 1, 0), 1*weak*a*b; got != want {
		t.Errorf("LinkFactor(0, 1) = %v, want %v (weak node first)", got, want)
	}
}
