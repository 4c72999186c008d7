package chassis

import (
	"slices"
	"testing"

	"numabfs/internal/fault"
	"numabfs/internal/machine"
	"numabfs/internal/mpi"
	"numabfs/internal/rmat"
	"numabfs/internal/trace"
	"numabfs/internal/wire"
)

// toy is the smallest engine the chassis can carry: a Core and one
// ledger per member position.
type toy struct {
	Core
	states []*Ledger
}

func (e *toy) ledgers(buf []*Ledger) []*Ledger { return append(buf, e.states...) }

// at returns the ledger of the position p holds.
func (e *toy) at(p *mpi.Proc) *Ledger { return e.states[e.Members.Pos(p.Rank())] }

// newToy builds a 2-node x 4-socket world (8 ranks) with the last spares
// ranks of each node parked.
func newToy(t *testing.T, spares int) *toy {
	t.Helper()
	cfg := machine.Scaled(12, 24)
	cfg.Nodes, cfg.SocketsPerNode, cfg.WeakNode = 2, 4, -1
	e := &toy{}
	var err error
	if e.Core, err = NewCore(cfg, machine.PPN8Bind, rmat.Graph500(12), spares, e.ledgers); err != nil {
		t.Fatal(err)
	}
	e.states = make([]*Ledger, len(e.Members.Ranks()))
	for pos := range e.states {
		e.states[pos] = &Ledger{}
	}
	return e
}

// TestMembersParkLastRanksOfEveryNode: the member table parks the last
// spares ranks of every node, maps positions to the rest in rank order
// and back, and rejects a reservation that leaves a node no member.
func TestMembersParkLastRanksOfEveryNode(t *testing.T) {
	e := newToy(t, 1)
	if got, want := e.Members.Ranks(), []int{0, 1, 2, 4, 5, 6}; !slices.Equal(got, want) {
		t.Fatalf("members %v, want %v", got, want)
	}
	for pos, r := range e.Members.Ranks() {
		if e.Members.Pos(r) != pos || e.Members.Rank(pos) != r {
			t.Errorf("rank %d at position %d does not round-trip", r, pos)
		}
	}
	var ran []int
	e.W.Run(func(p *mpi.Proc) { p.Barrier() })
	for r := 0; r < e.W.NumProcs(); r++ {
		if e.W.Proc(r).Clock() > 0 {
			ran = append(ran, r)
		}
	}
	if e.Members.Pos(3) != -1 || e.Members.Pos(7) != -1 || !slices.Equal(ran, e.Members.Ranks()) {
		t.Errorf("spares 3 and 7 not parked: positions %d %d, ranks %v ran", e.Members.Pos(3), e.Members.Pos(7), ran)
	}
	cfg := machine.Scaled(12, 24)
	cfg.Nodes, cfg.SocketsPerNode, cfg.WeakNode = 2, 4, -1
	for _, spares := range []int{-1, 4} {
		if _, err := NewCore(cfg, machine.PPN8Bind, rmat.Graph500(12), spares, nil); err == nil {
			t.Errorf("%d spares per node on 4 ranks per node accepted", spares)
		}
	}
}

// TestChargeCommCarvesXport: under a lossy plan the reliable transport's
// stall inside a communication section lands in trace.Xport — exactly
// the XportNs delta — and the phase gets the rest of the interval; with
// no plan the delta is exactly zero and the phase gets all of it.
func TestChargeCommCarvesXport(t *testing.T) {
	for _, lossy := range []bool{false, true} {
		e := newToy(t, 0)
		if lossy {
			if err := e.InjectFaults(fault.Lossy(42, 0.2)); err != nil {
				t.Fatal(err)
			}
		}
		np := e.W.NumProcs()
		dx := make([]float64, np)
		e.Run(func(p *mpi.Proc) {
			l := e.at(p)
			l.Reset(p)
			p.Compute(100)
			t0, x0 := p.Clock(), p.XportNs()
			peer := (p.Rank() + np/2) % np // the same socket on the other node
			for i := 0; i < 40; i++ {
				p.SendRecv(peer, i, 4096, nil, peer, i, 1)
			}
			l.ChargeComm(p, trace.BUComm, t0, x0)
			dx[p.Rank()] = p.XportNs() - x0
			if got := l.Breakdown.Ns[trace.Xport]; got != dx[p.Rank()] {
				t.Errorf("lossy=%v rank %d: Xport charged %v, XportNs moved %v", lossy, p.Rank(), got, dx[p.Rank()])
			}
			if got, want := l.Breakdown.Ns[trace.BUComm], p.Clock()-t0-dx[p.Rank()]; got != want {
				t.Errorf("lossy=%v rank %d: BUComm charged %v, want %v", lossy, p.Rank(), got, want)
			}
		}, nil)
		var total float64
		for _, d := range dx {
			total += d
		}
		if lossy && total <= 0 {
			t.Error("a 20% loss plan accrued no transport stall — the test exercises nothing")
		}
		if !lossy && total != 0 {
			t.Errorf("transport stall %v without a loss plan", total)
		}
	}
}

// mustPanic runs f and returns what it panicked with.
func mustPanic(t *testing.T, what string, f func()) (got any) {
	t.Helper()
	defer func() {
		if got = recover(); got == nil {
			t.Fatalf("%s: no panic", what)
		}
	}()
	f()
	return nil
}

// crashOf returns a plan with one transient crash of rank 1 at 500 ns.
func crashOf() fault.Plan {
	return fault.Plan{Crashes: []fault.Crash{{Rank: 1, AtNs: 500}}}
}

// work is a traversal body long enough for crashOf's crash to fire.
func work(p *mpi.Proc) {
	p.Compute(1000)
	p.Barrier()
}

// TestRunRecoversPlannedCrash: the happy path — one scheduled permanent
// crash with no spare parked: detected at lease expiry, the dead rank
// reruns in place on epoch 0 without a regroup, and Finish reports the
// crash with that detection latency as MTTR.
func TestRunRecoversPlannedCrash(t *testing.T) {
	e := newToy(t, 0)
	plan := crashOf()
	plan.Crashes[0].Permanent = true
	if err := e.InjectFaults(plan); err != nil {
		t.Fatal(err)
	}
	want := fault.DetectionTimeNs(500)
	e.Run(func(p *mpi.Proc) {
		e.at(p).Reset(p)
		work(p)
	}, func(int) int64 {
		t.Error("regroup called without a spare to promote")
		return 0
	})
	var s Summary
	e.Finish(&s, e.states[0])
	if len(s.Faults) != 1 || s.Epoch != 0 {
		t.Fatalf("%d faults on epoch %d, want 1 on epoch 0", len(s.Faults), s.Epoch)
	}
	if f := s.Faults[0]; f.Rank != 1 || f.AtNs != 500 || !f.Permanent {
		t.Errorf("survived %+v, want the permanent death of rank 1 at 500 ns", f)
	}
	if s.MTTRNs != want-500 {
		t.Errorf("MTTR %v, want the detection latency %v (nothing was re-owned)", s.MTTRNs, want-500)
	}
}

// TestRunRerunsFromRoots: after a crash Run reruns the traversal body,
// and each member's Reset restarts its clock at the detection floor,
// charging the floor to Recovery. With a spare parked on the dead rank's
// node, a permanent death promotes it into the dead rank's position:
// regroup is asked for that position's state, and the spare pays its
// re-own transfer on top of the floor, charged to Reown.
func TestRunRerunsFromRoots(t *testing.T) {
	for _, tc := range []struct {
		name   string
		spares int // per node; a spare turns the crash permanent
	}{{"nil repair", 0}, {"parked re-own", 1}} {
		t.Run(tc.name, func(t *testing.T) {
			e := newToy(t, tc.spares)
			plan := crashOf()
			plan.Crashes[0].Permanent = tc.spares > 0
			if err := e.InjectFaults(plan); err != nil {
				t.Fatal(err)
			}
			floor := 500 + fault.DetectTimeoutNs
			var regroup func(int) int64
			var parked float64
			if tc.spares > 0 {
				floor = fault.DetectionTimeNs(500)
				const bytes = 1 << 20
				parked = bytes / e.W.Config().ShmCopyBW
				regroup = func(pos int) int64 {
					if pos != 1 || e.Members.Rank(1) != 3 {
						t.Errorf("regroup of position %d held by rank %d, want position 1 on spare 3", pos, e.Members.Rank(pos))
					}
					return bytes
				}
			}
			attempts := make([]int, len(e.states))
			e.Run(func(p *mpi.Proc) {
				pos := e.Members.Pos(p.Rank())
				attempts[pos]++
				l := e.at(p)
				l.Reset(p)
				if attempts[pos] == 2 {
					want := floor
					if pos == 1 {
						want += parked
					}
					if p.Clock() != want {
						t.Errorf("rank %d reran from %v, want %v", p.Rank(), p.Clock(), want)
					}
					if got := l.Breakdown.Ns[trace.Recovery]; got != floor {
						t.Errorf("rank %d: Recovery charged %v, want the floor %v", p.Rank(), got, floor)
					}
					if pos == 1 && l.Breakdown.Ns[trace.Reown] != parked {
						t.Errorf("rank %d: Reown charged %v, want the parked %v", p.Rank(), l.Breakdown.Ns[trace.Reown], parked)
					}
				}
				work(p)
			}, regroup)
			for pos, n := range attempts {
				if n != 2 {
					t.Errorf("position %d ran the body %d times, want 2", pos, n)
				}
			}
			var s Summary
			e.Finish(&s, e.states[0])
			if len(s.Faults) != 1 || s.MTTRNs != floor-500+parked || s.Epoch != tc.spares {
				t.Errorf("Finish reported %d faults, MTTR %v, epoch %d; want 1, %v and %d",
					len(s.Faults), s.MTTRNs, s.Epoch, floor-500+parked, tc.spares)
			}
			// The next traversal starts clean: the mark was consumed.
			e.Run(func(p *mpi.Proc) {
				l := e.at(p)
				l.Reset(p)
				if p.Clock() != 0 || l.Breakdown.Ns[trace.Recovery] != 0 {
					t.Errorf("rank %d: a clean traversal inherited the rerun", p.Rank())
				}
			}, regroup)
		})
	}
}

// TestRunRepanics: everything the retry loop cannot recover is re-raised
// unchanged, without promoting a spare (again).
func TestRunRepanics(t *testing.T) {
	noRegroup := func(int) int64 {
		t.Error("regroup called for an unrecoverable failure")
		return 0
	}
	wantCrash := func(what string, got any) {
		t.Helper()
		if f, ok := got.(*mpi.FaultError); !ok || f.Kind != fault.KindCrash {
			t.Errorf("%s: panicked with %v, want the crash fault", what, got)
		}
	}

	t.Run("non-crash fault", func(t *testing.T) {
		e := newToy(t, 1)
		if err := e.InjectFaults(crashOf()); err != nil {
			t.Fatal(err)
		}
		got := mustPanic(t, "dead link", func() {
			e.Run(func(p *mpi.Proc) {
				if p.Rank() == 2 {
					panic(&fault.Error{Rank: 2, AtNs: 10, Kind: fault.KindLinkLoss})
				}
				p.Barrier()
			}, noRegroup)
		})
		if f, ok := got.(*mpi.FaultError); !ok || f.Kind != fault.KindLinkLoss {
			t.Errorf("panicked with %v, want the link-loss fault", got)
		}
		mustPanic(t, "programming bug", func() {
			e.Run(func(p *mpi.Proc) { panic("bug") }, noRegroup)
		})
	})

	t.Run("unplanned crash", func(t *testing.T) {
		// A crash the chassis was never told about: the plan went into
		// the world directly, so nothing armed recovery.
		e := newToy(t, 1)
		plan := crashOf()
		plan.Crashes[0].Permanent = true
		if err := e.W.InjectFaults(plan); err != nil {
			t.Fatal(err)
		}
		wantCrash("unplanned crash", mustPanic(t, "unplanned crash", func() { e.Run(work, noRegroup) }))
	})

	t.Run("more failures than planned", func(t *testing.T) {
		e := newToy(t, 1)
		plan := crashOf()
		plan.Crashes[0].Permanent = true
		if err := e.InjectFaults(plan); err != nil {
			t.Fatal(err)
		}
		regroups := 0
		attempts := make([]int, e.W.NumProcs())
		wantCrash("second crash", mustPanic(t, "second crash", func() {
			e.Run(func(p *mpi.Proc) {
				if attempts[p.Rank()]++; attempts[p.Rank()] == 2 && p.Rank() == 2 {
					panic(&fault.Error{Rank: 2, AtNs: p.Clock(), Permanent: true})
				}
				work(p)
			}, func(int) int64 { regroups++; return 0 })
		}))
		if regroups != 1 {
			t.Errorf("%d regroups for a one-crash plan, want 1", regroups)
		}
	})
}

// TestFinishAveragesOverMembers: with spares parked the breakdown is the
// mean over the members holding a ledger, not over the world's ranks;
// the level structure is the lead's, Levels the maximum, and the codec
// decisions the sum over tracked (non-nil) codecs.
func TestFinishAveragesOverMembers(t *testing.T) {
	e := newToy(t, 1)
	codec := &wire.Codec{}
	for pos, l := range e.states {
		r := e.Members.Rank(pos)
		l.Track(nil, codec, nil)
		l.Breakdown.Add(trace.TDComp, float64(r+1)) // 1 2 3 5 6 7
		l.Levels = r
		l.Breakdown.TDLevels = 10 + r
	}
	lead := e.states[1]
	lead.LevelStats = []trace.LevelStat{{Level: 1, NF: 9}}
	e.W.Run(func(p *mpi.Proc) { p.Compute(2e9) })

	s := Summary{TraversedEdges: 1000}
	e.Finish(&s, lead)
	if got, want := s.Breakdown.Ns[trace.TDComp], 24.0/6; got != want {
		t.Errorf("mean TDComp %v, want %v (over the 6 members, not the 8 ranks)", got, want)
	}
	if s.Breakdown.TDLevels != 11 || len(s.LevelStats) != 1 || s.LevelStats[0].NF != 9 {
		t.Errorf("level structure %d %+v is not the lead's", s.Breakdown.TDLevels, s.LevelStats)
	}
	if s.Levels != 6 {
		t.Errorf("Levels %d, want the members' maximum 6", s.Levels)
	}
	if s.TimeNs != 2e9 || s.TEPS != 500 {
		t.Errorf("TimeNs %v TEPS %v, want 2e9 and 500", s.TimeNs, s.TEPS)
	}
	if len(lead.codecs) != 1 {
		t.Errorf("Track kept %d codecs of (nil, codec, nil), want 1", len(lead.codecs))
	}
}
