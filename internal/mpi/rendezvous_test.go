package mpi

// Tests of the slot rendezvous, the barrier and the park/wake primitive
// under both (rendezvous.go, barrier.go). They all run at GOMAXPROCS 1,
// 2 and 8 — one P forces every wait through a park, eight on a two-core
// box maximizes preemption between a waker's store and its parked load
// — and the CI race step runs this package whole. As in abort_test.go,
// TryRun returning is the liveness assertion: a lost wake-up is a test
// timeout.

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"numabfs/internal/fault"
	"numabfs/internal/machine"
)

// atProcs runs f as a subtest at each host parallelism.
func atProcs(t *testing.T, f func(t *testing.T)) {
	for _, n := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("procs=%d", n), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(n))
			f(t)
		})
	}
}

// blockSites is one body per wait site of the rendezvous: rank 0 blocks
// there for good, because rank 1 never makes the matching call.
var blockSites = []struct {
	name  string
	rank0 func(p *Proc)
}{
	{"post-full-slot", func(p *Proc) {
		p.Isend(1, 1, 8, nil, 1) // fills the slot to rank 1
		p.Send(1, 2, 8, nil, 1)  // blocks in post
	}},
	{"take", func(p *Proc) { p.Recv(1, 1) }},
	{"await", func(p *Proc) { p.Send(1, 1, 8, nil, 1) }},
	{"wait-send", func(p *Proc) { p.Isend(1, 1, 8, nil, 1).Wait() }},
	{"wait-recv", func(p *Proc) { p.Irecv(1, 1, nil).Wait() }},
	{"sendrecv", func(p *Proc) { p.SendRecv(1, 1, 8, nil, 1, 1, 1) }},
	{"barrier", func(p *Proc) { p.Barrier() }},
	{"node-barrier", func(p *Proc) { p.NodeBarrier() }},
}

// TestAbortReleasesEverySite races a failing rank against a rank
// blocking at each wait site, many times over, so the abort reaches it
// parked in some rounds and between its parked store and its block in
// others; every round must return the failing rank's error.
func TestAbortReleasesEverySite(t *testing.T) {
	atProcs(t, func(t *testing.T) {
		for _, site := range blockSites {
			w := testWorld(t, 1)
			for round := 0; round < 50; round++ {
				err := w.TryRun(func(p *Proc) {
					switch p.Rank() {
					case 0:
						site.rank0(p)
					case 1:
						panic("boom")
					}
				})
				if err == nil || !strings.Contains(err.Error(), "rank 1") {
					t.Fatalf("%s round %d: TryRun = %v, want rank 1 panic", site.name, round, err)
				}
			}
		}
	})
}

// TestAbortFlagStopsRankBeforeItParks is the deterministic half of the
// abort argument: a rank that reaches a wait site after the flag was
// stored — nobody will wake it, an abort only wakes what is parked —
// must see the flag on the check between its parked store and its
// block, and unwind.
func TestAbortFlagStopsRankBeforeItParks(t *testing.T) {
	for _, site := range blockSites {
		w := testWorld(t, 1)
		err := w.TryRun(func(p *Proc) {
			if p.Rank() != 0 {
				return
			}
			w.doAbort()
			defer func() {
				if _, ok := recover().(errAborted); !ok {
					panic("blocked call did not unwind with errAborted")
				}
				if p.parked.Load() != 0 {
					panic("wait cut short by the abort left the parked word set")
				}
			}()
			site.rank0(p)
		})
		if err != nil {
			t.Fatalf("%s: TryRun = %v", site.name, err)
		}
	}
}

// TestDeadlockReturnsStallError: a program that blocks for good with no
// fault and no panic to blame ends in a StallError naming the parked
// ranks — whether the cycle stays on one worker or crosses two — and Run
// panics with it; the world is reusable afterwards.
func TestDeadlockReturnsStallError(t *testing.T) {
	for _, tc := range []struct {
		name string
		body func(p *Proc)
		want []int
	}{
		{"recv-each-other", func(p *Proc) {
			switch p.Rank() {
			case 0:
				p.Recv(1, 1)
			case 1:
				p.Recv(0, 1)
			}
		}, []int{0, 1}},
		{"recv-each-other-apart", func(p *Proc) {
			switch p.Rank() {
			case 0:
				p.Recv(3, 1)
			case 3:
				p.Recv(0, 1)
			}
		}, []int{0, 3}},
		{"return-before-barrier", func(p *Proc) {
			if p.Rank() != 3 {
				p.Barrier()
			}
		}, []int{0, 1, 2}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			atProcs(t, func(t *testing.T) {
				w := testWorld(t, 1)
				for round := 0; round < 20; round++ {
					err := w.TryRun(tc.body)
					se, ok := err.(*StallError)
					if !ok || fmt.Sprint(se.Ranks) != fmt.Sprint(tc.want) {
						t.Fatalf("round %d: TryRun = %v, want a StallError naming ranks %v", round, err, tc.want)
					}
					if err := w.TryRun(func(p *Proc) { p.Barrier() }); err != nil {
						t.Fatalf("round %d: run after the deadlock: %v", round, err)
					}
				}
				defer func() {
					if _, ok := recover().(*StallError); !ok {
						t.Fatal("Run did not panic with the StallError")
					}
				}()
				w.Run(tc.body)
			})
		})
	}
}

// TestWorldReusable100xAfterFailedTryRun alternates a failing attempt
// that leaves the world as dirty as it gets — a full slot nobody takes,
// ranks parked in every kind of wait, both barriers half arrived — with
// a clean attempt that must see none of it.
func TestWorldReusable100xAfterFailedTryRun(t *testing.T) {
	atProcs(t, func(t *testing.T) {
		w := testWorld(t, 2)
		np := w.NumProcs()
		for i := 0; i < 100; i++ {
			err := w.TryRun(func(p *Proc) {
				switch p.Rank() {
				case 0:
					p.Isend(1, 1000+i, 8, nil, 1) // orphaned in rank 1's slot
					p.Barrier()
				case 1:
					p.Recv(2, 1) // parked in take
				case 2:
					p.Send(3, 1, 8, nil, 1) // parked in await
				case 3:
					p.Barrier()
				case 4:
					p.NodeBarrier()
				case 5:
					panic("boom")
				default:
					p.SendRecv((p.Rank()+1)%np, 1, 8, nil, (p.Rank()+np-1)%np, 1, 1)
				}
			})
			if err == nil || !strings.Contains(err.Error(), "rank 5") {
				t.Fatalf("attempt %d: TryRun = %v, want rank 5 panic", i, err)
			}

			for _, p := range w.procs {
				if p.parked.Load() != parkGone || p.fib != nil {
					t.Fatalf("attempt %d: rank %d kept parked=%d, fiber %p after the failed attempt",
						i, p.rank, p.parked.Load(), p.fib)
				}
			}
			for k, wk := range w.workers {
				if wk.n != 0 || len(wk.inbox) != 0 || wk.idle || len(wk.wake) != 0 {
					t.Fatalf("attempt %d: worker %d kept %d queued, %d in its inbox, idle=%v, %d wake tokens",
						i, k, wk.n, len(wk.inbox), wk.idle, len(wk.wake))
				}
			}
			if len(fibers.free) != fibers.made {
				t.Fatalf("attempt %d: %d of %d fibers back in the pool", i, len(fibers.free), fibers.made)
			}
			for j := range w.slots {
				if w.slots[j].Load() != nil {
					t.Fatalf("attempt %d: slot %d->%d still full after the failed attempt", i, j%np, j/np)
				}
			}

			w.PrepareRecovery()
			err = w.TryRun(func(p *Proc) {
				next, prev := (p.Rank()+1)%np, (p.Rank()+np-1)%np
				for s := 0; s < 4; s++ {
					m := p.SendRecv(next, i, 8, p.Rank(), prev, i, 1)
					if m.Tag != i || m.Payload.Any != prev {
						panic(fmt.Sprintf("stale message leaked into retry: %+v", m))
					}
				}
				p.Barrier()
				p.NodeBarrier()
			})
			if err != nil {
				t.Fatalf("clean attempt %d: %v", i, err)
			}
		}
	})
}

// TestWorldReusable100xAfterCrashNobodyWaitedFor: a crash whose
// survivors all run to completion aborts nothing, yet leaves a posted
// message in a slot. The re-arm is keyed on the attempt having failed,
// not on an abort having fired, so the retry sees a clean world.
func TestWorldReusable100xAfterCrashNobodyWaitedFor(t *testing.T) {
	atProcs(t, func(t *testing.T) {
		w := testWorld(t, 1)
		for i := 0; i < 100; i++ {
			if err := w.InjectFaults(fault.Plan{Crashes: []fault.Crash{{Rank: 0, AtNs: 5}}}); err != nil {
				t.Fatal(err)
			}
			err := w.TryRun(func(p *Proc) {
				if p.Rank() == 0 {
					p.Isend(1, 1000+i, 8, nil, 1) // orphaned: rank 1 returns without receiving
					p.Compute(10)                 // the crash fires here
				}
			})
			f, ok := err.(*FaultError)
			if !ok || f.Rank != 0 || f.AtNs != 5 {
				t.Fatalf("attempt %d: TryRun = %v, want rank 0 crashing at 5", i, err)
			}
			w.Injector().Disarm(f.Rank)
			w.PrepareRecovery()
			err = w.TryRun(func(p *Proc) {
				switch p.Rank() {
				case 0:
					p.SendPayload(1, i, 8, Payload{Scalar: int64(i)}, 1)
				case 1:
					if m := p.Recv(0, i); m.Payload.Scalar != int64(i) {
						panic(fmt.Sprintf("stale message leaked into retry: %+v", m))
					}
				}
				p.NodeBarrier()
			})
			if err != nil {
				t.Fatalf("retry %d: %v", i, err)
			}
		}
	})
}

// TestRerunAndPromoteClearDeadRanksSlots: a dead rank's posted message,
// and a survivor's message to it, must not outlive the failed attempt —
// a rerun in place or after a spare promotion starts from empty slots.
func TestRerunAndPromoteClearDeadRanksSlots(t *testing.T) {
	const dead, spare = 2, 7
	for _, promote := range []bool{false, true} {
		w := testWorld(t, 2)
		w.Park([]int{spare})
		err := w.TryRun(func(p *Proc) {
			switch p.Rank() {
			case dead:
				p.Isend(3, 1, 8, nil, 1)
				panic("boom")
			case 1:
				p.Send(dead, 1, 8, nil, 1)
			default:
				p.Barrier()
			}
		})
		if err == nil {
			t.Fatal("attempt should fail")
		}
		if promote {
			w.Promote(spare, dead)
		}
		for o := 0; o < w.NumProcs(); o++ {
			if w.slot(dead, o).Load() != nil || w.slot(o, dead).Load() != nil {
				t.Fatalf("promote=%v: slot between dead rank %d and %d not cleared", promote, dead, o)
			}
		}
		if err := w.TryRun(func(p *Proc) { p.Barrier() }); err != nil {
			t.Fatalf("promote=%v: run after the failed attempt: %v", promote, err)
		}
	}
}

// TestPingPongLosesNoWakeup drives 10^5 strictly alternating round
// trips through one pair of slots: every message finds its receiver
// either parked or about to park, so a wake-up lost once in 10^5 hangs
// the test.
func TestPingPongLosesNoWakeup(t *testing.T) {
	rounds := 100000
	if testing.Short() {
		rounds = 5000
	}
	atProcs(t, func(t *testing.T) {
		w := testWorld(t, 1)
		err := w.TryRun(func(p *Proc) {
			switch p.Rank() {
			case 0:
				for i := 0; i < rounds; i++ {
					p.SendPayload(1, i, 8, Payload{Scalar: int64(i)}, 1)
					if m := p.Recv(1, i); m.Payload.Scalar != int64(i)+1 {
						panic("ping-pong reply out of order")
					}
				}
			case 1:
				for i := 0; i < rounds; i++ {
					m := p.Recv(0, i)
					p.SendPayload(0, i, 8, Payload{Scalar: m.Payload.Scalar + 1}, 1)
				}
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	})
}

// TestRing128LosesNoWakeup is the paper-shaped case: 128 ranks on two
// host cores, each forwarding a token around the ring, so nearly every
// rank is parked at any moment and every post wakes a parked neighbour.
func TestRing128LosesNoWakeup(t *testing.T) {
	laps := 10
	if testing.Short() {
		laps = 4
	}
	atProcs(t, func(t *testing.T) {
		cfg := machine.TableI()
		cfg.WeakNode = -1
		w := NewWorld(cfg, machine.PlacementFor(cfg, machine.PPN8Bind))
		np := w.NumProcs()
		if np != 128 {
			t.Fatalf("Table I world has %d ranks, want 128", np)
		}
		err := w.TryRun(func(p *Proc) {
			next, prev := (p.Rank()+1)%np, (p.Rank()+np-1)%np
			carry := int64(p.Rank())
			for s := 0; s < laps*(np-1); s++ {
				m := p.SendRecv(next, s, 8, [2]int64{int64(s), carry}, prev, s, 1)
				in := m.Payload.Any.([2]int64)
				if in[0] != int64(s) {
					panic("ring step out of order")
				}
				carry = in[1]
			}
			// After laps*(np-1) forwards the token that started at rank
			// r-laps*(np-1) (mod np), i.e. r+laps, has arrived here.
			if want := int64((p.Rank() + laps) % np); carry != want {
				panic(fmt.Sprintf("rank %d holds token %d, want %d", p.Rank(), carry, want))
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	})
}

// TestBackToBackIsendsBlockThenComplete pins the capacity-1 posting
// behaviour: the second Isend to one destination may only return once
// the receiver has completed the first message — by which time the
// first cell carries its end time — and both then complete in order.
func TestBackToBackIsendsBlockThenComplete(t *testing.T) {
	atProcs(t, func(t *testing.T) {
		w := testWorld(t, 1)
		err := w.TryRun(func(p *Proc) {
			switch p.Rank() {
			case 0:
				r1 := p.IsendPayload(1, 1, 1024, Payload{Scalar: 11}, 1)
				first := r1.sent
				r2 := p.IsendPayload(1, 2, 1024, Payload{Scalar: 22}, 1)
				// The receiver writes end before it frees the slot, and this
				// rank saw the slot free before posting: no race, and a zero
				// here means the second post did not wait for the first.
				if first.end == 0 {
					panic("second Isend returned before the first message was received")
				}
				r1.Wait()
				r2.Wait()
			case 1:
				a := p.Recv(0, 1)
				b := p.Recv(0, 2)
				if a.Payload.Scalar != 11 || b.Payload.Scalar != 22 {
					panic("back-to-back Isends delivered out of order")
				}
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	})
}
