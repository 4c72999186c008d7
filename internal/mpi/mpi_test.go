package mpi

import (
	"fmt"
	"strings"
	"testing"

	"numabfs/internal/machine"
)

// testWorld builds a small world: nodes x 4-socket nodes, bound placement.
func testWorld(t *testing.T, nodes int) *World {
	t.Helper()
	cfg := machine.TableI()
	cfg.Nodes = nodes
	cfg.SocketsPerNode = 4
	cfg.WeakNode = -1
	pl := machine.PlacementFor(cfg, machine.PPN8Bind)
	return NewWorld(cfg, pl)
}

func TestWorldGeometry(t *testing.T) {
	w := testWorld(t, 2)
	if got, want := w.NumProcs(), 8; got != want {
		t.Fatalf("NumProcs = %d, want %d", got, want)
	}
	if got, want := w.ProcsPerNode(), 4; got != want {
		t.Fatalf("ProcsPerNode = %d, want %d", got, want)
	}
	for r := 0; r < w.NumProcs(); r++ {
		p := w.Proc(r)
		if p.Rank() != r {
			t.Errorf("rank %d: Rank() = %d", r, p.Rank())
		}
		if want := r / 4; p.Node() != want {
			t.Errorf("rank %d: Node() = %d, want %d", r, p.Node(), want)
		}
		if want := r % 4; p.LocalRank() != want {
			t.Errorf("rank %d: LocalRank() = %d, want %d", r, p.LocalRank(), want)
		}
	}
}

func TestSendRecvTransfersPayloadAndAdvancesClocks(t *testing.T) {
	w := testWorld(t, 2)
	var got []uint64
	w.Run(func(p *Proc) {
		switch p.Rank() {
		case 0:
			p.Send(5, 7, 4*8, []uint64{1, 2, 3, 4}, 1)
		case 5:
			m := p.Recv(0, 7)
			got = m.Payload.Any.([]uint64)
			if m.Src != 0 || m.Bytes != 32 {
				t.Errorf("Msg = %+v", m)
			}
		}
	})
	if len(got) != 4 || got[3] != 4 {
		t.Fatalf("payload = %v", got)
	}
	// Both ends advance to the same rendezvous end time.
	c0, c5 := w.Proc(0).Clock(), w.Proc(5).Clock()
	if c0 != c5 || c0 <= 0 {
		t.Fatalf("clocks after transfer: %g vs %g", c0, c5)
	}
	// Inter-node transfer must include the inter-node alpha.
	if c0 < w.Config().InterNodeAlphaNs {
		t.Fatalf("clock %g below inter-node alpha", c0)
	}
}

func TestRendezvousStartsAtMaxOfClocks(t *testing.T) {
	w := testWorld(t, 1)
	const lead = 5e6
	w.Run(func(p *Proc) {
		switch p.Rank() {
		case 0:
			p.Compute(lead)
			p.Send(1, 1, 8, []uint64{42}, 1)
		case 1:
			p.Recv(0, 1)
		}
	})
	// Receiver arrived at t=0 but cannot finish before the sender's lead.
	if c := w.Proc(1).Clock(); c <= lead {
		t.Fatalf("receiver clock %g, want > %g", c, lead)
	}
}

func TestIntraNodeCheaperThanInterNode(t *testing.T) {
	w := testWorld(t, 2)
	const bytes = 1 << 20
	var intra, inter float64
	w.Run(func(p *Proc) {
		switch p.Rank() {
		case 0:
			p.Send(1, 1, bytes, nil, 1)
			intra = p.Clock()
			p.Send(4, 2, bytes, nil, 1)
			inter = p.Clock() - intra
		case 1:
			p.Recv(0, 1)
		case 4:
			p.Recv(0, 2)
		}
	})
	// With TableI parameters shm copy (3 GB/s) is slower than one IB
	// stream (2.6 GB/s)? No: 3 > 2.6, so intra should be cheaper.
	if intra >= inter {
		t.Fatalf("intra %g >= inter %g", intra, inter)
	}
}

func TestSendRecvRingDoesNotDeadlock(t *testing.T) {
	w := testWorld(t, 2)
	n := w.NumProcs()
	w.Run(func(p *Proc) {
		me := p.Rank()
		next := (me + 1) % n
		prev := (me - 1 + n) % n
		for s := 0; s < 3; s++ {
			m := p.SendRecv(next, 100+s, 64, []uint64{uint64(me)}, prev, 100+s, 1)
			if v := m.Payload.Any.([]uint64)[0]; v != uint64(prev) {
				t.Errorf("rank %d step %d: got %d want %d", me, s, v, prev)
			}
		}
	})
}

func TestBarrierSynchronizesToMaxAndReportsWait(t *testing.T) {
	w := testWorld(t, 2)
	waits := make([]float64, w.NumProcs())
	w.Run(func(p *Proc) {
		p.Compute(float64(p.Rank()) * 1000)
		waits[p.Rank()] = p.Barrier()
	})
	last := w.NumProcs() - 1
	if waits[last] != 0 {
		t.Errorf("slowest rank waited %g, want 0", waits[last])
	}
	if waits[0] != float64(last)*1000 {
		t.Errorf("rank 0 waited %g, want %g", waits[0], float64(last)*1000)
	}
	// All clocks equal after the barrier.
	c := w.Proc(0).Clock()
	for r := 1; r < w.NumProcs(); r++ {
		if w.Proc(r).Clock() != c {
			t.Fatalf("clock mismatch after barrier: rank %d", r)
		}
	}
}

// TestBarrierMaxOverLiveRanks drives the one barrier type through
// several generations at the geometries membership produces: every live
// rank must observe the maximum over all of them — not over its node —
// whatever the per-node populations, and a single-node world must not
// wait for anybody else. Ranks arrive spread over virtual time, the
// slowest one changing every generation, so a result read from the
// wrong parity slot shows.
func TestBarrierMaxOverLiveRanks(t *testing.T) {
	const gens = 5
	for _, tc := range []struct {
		name   string
		nodes  int
		parked []int
	}{
		{"full", 4, nil},
		{"uneven-nodes", 4, []int{1, 2, 3, 6, 15}}, // populations 1, 3, 4, 3
		{"node-emptied", 2, []int{4, 5, 6, 7}},
		{"single-node", 1, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			atProcs(t, func(t *testing.T) {
				w := testWorld(t, tc.nodes)
				if tc.parked != nil {
					w.Park(tc.parked)
				}
				live := liveRanks(w)
				w.Run(func(p *Proc) {
					for g := 0; g < gens; g++ {
						slowest := live[g%len(live)]
						work := float64(p.Rank() + 1)
						if p.Rank() == slowest {
							work = 1000
						}
						// Everybody left the last barrier at the same clock,
						// so the slowest rank's 1000 is the maximum again.
						p.Compute(work)
						if wait, want := p.Barrier(), 1000-work; wait != want {
							panic(fmt.Sprintf("generation %d: waited %g, want %g", g, wait, want))
						}
					}
				})
				c := w.Proc(live[0]).Clock()
				for _, r := range live {
					if w.Proc(r).Clock() != c {
						t.Fatalf("rank %d left the last barrier at %g, rank %d at %g", r, w.Proc(r).Clock(), live[0], c)
					}
				}
			})
		})
	}
}

func TestNodeBarrierOnlySyncsNode(t *testing.T) {
	w := testWorld(t, 2)
	w.Run(func(p *Proc) {
		if p.Node() == 0 {
			p.Compute(1e6)
		}
		p.NodeBarrier()
	})
	if c0, c4 := w.Proc(0).Clock(), w.Proc(4).Clock(); c0 <= c4 {
		t.Fatalf("node 0 clock %g should exceed node 1 clock %g", c0, c4)
	}
}

func TestSharedWordsIsPerNode(t *testing.T) {
	w := testWorld(t, 2)
	w.Run(func(p *Proc) {
		s := p.SharedWords("inq", 8)
		p.NodeBarrier()
		if p.LocalRank() == 0 {
			s[0] = uint64(100 + p.Node())
		}
		p.NodeBarrier()
		if want := uint64(100 + p.Node()); s[0] != want {
			t.Errorf("rank %d sees %d, want %d", p.Rank(), s[0], want)
		}
	})
}

func TestResetClocks(t *testing.T) {
	w := testWorld(t, 1)
	w.Run(func(p *Proc) { p.Compute(123) })
	if w.MaxClock() != 123 {
		t.Fatalf("MaxClock = %g", w.MaxClock())
	}
	w.ResetClocks()
	if w.MaxClock() != 0 {
		t.Fatalf("MaxClock after reset = %g", w.MaxClock())
	}
}

func TestRunPropagatesPanicWithRank(t *testing.T) {
	w := testWorld(t, 1)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected panic")
		}
		if !strings.Contains(r.(error).Error(), "rank 2") {
			t.Fatalf("panic %v does not name rank 2", r)
		}
	}()
	w.Run(func(p *Proc) {
		if p.Rank() == 2 {
			panic("boom")
		}
	})
}

func TestRecvTagMismatchPanics(t *testing.T) {
	w := testWorld(t, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected tag-mismatch panic")
		}
	}()
	w.Run(func(p *Proc) {
		switch p.Rank() {
		case 0:
			p.Send(1, 7, 8, nil, 1)
		case 1:
			p.Recv(0, 8) // wrong tag: a program bug, must fail loudly
		}
	})
}

func TestSelfSendPanics(t *testing.T) {
	w := testWorld(t, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected self-send panic")
		}
	}()
	w.Run(func(p *Proc) {
		if p.Rank() == 0 {
			p.Send(0, 1, 8, nil, 1)
		}
	})
}

func TestSharedWordsSizeMismatchPanics(t *testing.T) {
	w := testWorld(t, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected size-mismatch panic")
		}
	}()
	w.Run(func(p *Proc) {
		p.SharedWords("x", 8)
		p.NodeBarrier()
		if p.Rank() == 0 {
			p.SharedWords("x", 16)
		}
	})
}

func TestClocksNeverRegress(t *testing.T) {
	// Property-style: through a mix of computes, sends and barriers, a
	// rank's clock is non-decreasing at every observation point.
	w := testWorld(t, 2)
	n := w.NumProcs()
	bad := make([]bool, n)
	w.Run(func(p *Proc) {
		last := p.Clock()
		check := func() {
			if p.Clock() < last {
				bad[p.Rank()] = true
			}
			last = p.Clock()
		}
		for i := 0; i < 5; i++ {
			p.Compute(float64(p.Rank()+1) * 10)
			check()
			m := p.SendRecv((p.Rank()+1)%n, 50+i, 16, nil, (p.Rank()-1+n)%n, 50+i, 1)
			_ = m
			check()
			p.Barrier()
			check()
		}
	})
	for r, b := range bad {
		if b {
			t.Errorf("rank %d observed a clock regression", r)
		}
	}
}
