package chassis

import (
	"testing"

	"numabfs/internal/fault"
	"numabfs/internal/machine"
	"numabfs/internal/mpi"
	"numabfs/internal/rmat"
	"numabfs/internal/trace"
	"numabfs/internal/wire"
)

// toy is the smallest engine the chassis can carry: a Core and one
// ledger per world rank (nil for a parked spare).
type toy struct {
	Core
	states []*Ledger
}

func (e *toy) ledgers(buf []*Ledger) []*Ledger {
	for _, l := range e.states {
		if l != nil {
			buf = append(buf, l)
		}
	}
	return buf
}

// newToy builds a 2-node x 4-socket world (8 ranks) with the given ranks
// parked as spares.
func newToy(t *testing.T, parked ...int) *toy {
	t.Helper()
	cfg := machine.Scaled(12, 24)
	cfg.Nodes, cfg.SocketsPerNode, cfg.WeakNode = 2, 4, -1
	e := &toy{}
	var err error
	if e.Core, err = NewCore(cfg, machine.PPN8Bind, rmat.Graph500(12), e.ledgers); err != nil {
		t.Fatal(err)
	}
	e.states = make([]*Ledger, e.W.NumProcs())
	for r := range e.states {
		e.states[r] = &Ledger{}
	}
	for _, r := range parked {
		e.states[r] = nil
	}
	if len(parked) > 0 {
		e.W.Park(parked)
	}
	return e
}

// TestChargeCommCarvesXport: under a lossy plan the reliable transport's
// stall inside a communication section lands in trace.Xport — exactly
// the XportNs delta — and the phase gets the rest of the interval; with
// no plan the delta is exactly zero and the phase gets all of it.
func TestChargeCommCarvesXport(t *testing.T) {
	for _, lossy := range []bool{false, true} {
		e := newToy(t)
		if lossy {
			if err := e.InjectFaults(fault.Lossy(42, 0.2)); err != nil {
				t.Fatal(err)
			}
		}
		np := e.W.NumProcs()
		dx := make([]float64, np)
		e.Run(func(p *mpi.Proc) {
			l := e.states[p.Rank()]
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

// TestRunRecoversPlannedCrash: the happy path — one scheduled crash, one
// repair, the engine's own resume floored at detection time, and the
// crash reported by Finish.
func TestRunRecoversPlannedCrash(t *testing.T) {
	e := newToy(t)
	if err := e.InjectFaults(crashOf()); err != nil {
		t.Fatal(err)
	}
	repairs := 0
	e.Run(work, func(f *mpi.FaultError, floor float64) func(p *mpi.Proc) {
		repairs++
		if f.Rank != 1 || f.AtNs != 500 {
			t.Errorf("repair asked to fix %+v, want rank 1 at 500 ns", f)
		}
		return func(p *mpi.Proc) {
			l := e.states[p.Rank()]
			l.Reset(p)
			if p.Clock() != 0 || l.Breakdown.Ns[trace.Recovery] != 0 {
				t.Errorf("rank %d: a resume of the engine's own was charged a rerun", p.Rank())
			}
			p.RestoreClock(floor)
			work(p)
		}
	})
	var s Summary
	e.Finish(&s, e.states[0])
	if repairs != 1 || len(s.Faults) != 1 {
		t.Fatalf("%d repairs, %d faults, want 1 and 1", repairs, len(s.Faults))
	}
	if want := e.W.Injector().DetectTimeoutNs(); s.MTTRNs != want {
		t.Errorf("MTTR %v, want the detection timeout %v (nothing was re-owned)", s.MTTRNs, want)
	}
}

// TestRunRerunsFromRoots: without a resume — no repair at all, or a
// repair that only performs surgery — Run reruns the traversal body, and
// each member's Reset restarts its clock at the detection floor plus
// what the surgery parked, charging the floor to Recovery and the
// transfer to Reown.
func TestRunRerunsFromRoots(t *testing.T) {
	for _, tc := range []struct {
		name   string
		parked float64 // re-own transfer the repair parks on rank 1
	}{{"nil repair", 0}, {"nil resume", 250}} {
		t.Run(tc.name, func(t *testing.T) {
			e := newToy(t)
			if err := e.InjectFaults(crashOf()); err != nil {
				t.Fatal(err)
			}
			floor := 500 + e.W.Injector().DetectTimeoutNs()
			parked := tc.parked
			var repair func(*mpi.FaultError, float64) func(*mpi.Proc)
			if parked > 0 {
				repair = func(f *mpi.FaultError, _ float64) func(*mpi.Proc) {
					e.states[f.Rank].ParkReown(parked)
					return nil
				}
			}
			attempts := make([]int, e.W.NumProcs())
			e.Run(func(p *mpi.Proc) {
				attempts[p.Rank()]++
				l := e.states[p.Rank()]
				l.Reset(p)
				if attempts[p.Rank()] == 2 {
					want := floor
					if p.Rank() == 1 {
						want += parked
					}
					if p.Clock() != want {
						t.Errorf("rank %d reran from %v, want %v", p.Rank(), p.Clock(), want)
					}
					if got := l.Breakdown.Ns[trace.Recovery]; got != floor {
						t.Errorf("rank %d: Recovery charged %v, want the floor %v", p.Rank(), got, floor)
					}
					if p.Rank() == 1 && l.Breakdown.Ns[trace.Reown] != parked {
						t.Errorf("rank 1: Reown charged %v, want the parked %v", l.Breakdown.Ns[trace.Reown], parked)
					}
				}
				work(p)
			}, repair)
			for r, n := range attempts {
				if n != 2 {
					t.Errorf("rank %d ran the body %d times, want 2", r, n)
				}
			}
			var s Summary
			e.Finish(&s, e.states[0])
			if len(s.Faults) != 1 || s.MTTRNs != floor-500+parked {
				t.Errorf("Finish reported %d faults, MTTR %v; want 1 and %v", len(s.Faults), s.MTTRNs, floor-500+parked)
			}
			// The next traversal starts clean: the mark was consumed.
			e.Run(func(p *mpi.Proc) {
				l := e.states[p.Rank()]
				l.Reset(p)
				if p.Clock() != 0 || l.Breakdown.Ns[trace.Recovery] != 0 {
					t.Errorf("rank %d: a clean traversal inherited the rerun", p.Rank())
				}
			}, repair)
		})
	}
}

// TestRunRepanics: everything the retry loop cannot recover is re-raised
// unchanged, without calling repair (again).
func TestRunRepanics(t *testing.T) {
	noRepair := func(*mpi.FaultError, float64) func(*mpi.Proc) {
		t.Error("repair called for an unrecoverable failure")
		return work
	}
	wantCrash := func(what string, got any) {
		t.Helper()
		if f, ok := got.(*mpi.FaultError); !ok || f.Kind != fault.KindCrash {
			t.Errorf("%s: panicked with %v, want the crash fault", what, got)
		}
	}

	t.Run("non-crash fault", func(t *testing.T) {
		e := newToy(t)
		if err := e.InjectFaults(crashOf()); err != nil {
			t.Fatal(err)
		}
		got := mustPanic(t, "dead link", func() {
			e.Run(func(p *mpi.Proc) {
				if p.Rank() == 2 {
					panic(&fault.Error{Rank: 2, AtNs: 10, Kind: fault.KindLinkLoss})
				}
				p.Barrier()
			}, noRepair)
		})
		if f, ok := got.(*mpi.FaultError); !ok || f.Kind != fault.KindLinkLoss {
			t.Errorf("panicked with %v, want the link-loss fault", got)
		}
		mustPanic(t, "programming bug", func() {
			e.Run(func(p *mpi.Proc) { panic("bug") }, noRepair)
		})
	})

	t.Run("unplanned crash", func(t *testing.T) {
		// A crash the chassis was never told about: the plan went into
		// the world directly, so nothing armed recovery.
		e := newToy(t)
		if err := e.W.InjectFaults(crashOf()); err != nil {
			t.Fatal(err)
		}
		wantCrash("unplanned crash", mustPanic(t, "unplanned crash", func() { e.Run(work, noRepair) }))
	})

	t.Run("more failures than planned", func(t *testing.T) {
		e := newToy(t)
		if err := e.InjectFaults(crashOf()); err != nil {
			t.Fatal(err)
		}
		repairs := 0
		wantCrash("second crash", mustPanic(t, "second crash", func() {
			e.Run(work, func(*mpi.FaultError, float64) func(*mpi.Proc) {
				repairs++
				return func(p *mpi.Proc) {
					if p.Rank() == 3 {
						panic(&fault.Error{Rank: 3, AtNs: p.Clock()})
					}
					p.Barrier()
				}
			})
		}))
		if repairs != 1 {
			t.Errorf("%d repairs for a one-crash plan, want 1", repairs)
		}
	})
}

// TestFinishAveragesOverMembers: with spares parked the breakdown is the
// mean over the members holding a ledger, not over the world's ranks;
// the level structure is the lead's, Levels the maximum, and the codec
// decisions the sum over tracked (non-nil) codecs.
func TestFinishAveragesOverMembers(t *testing.T) {
	e := newToy(t, 3, 7)
	codec := &wire.Codec{}
	for r, l := range e.states {
		if l == nil {
			continue
		}
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
