package chassis

import (
	"numabfs/internal/mpi"
	"numabfs/internal/obs"
	"numabfs/internal/trace"
	"numabfs/internal/wire"
)

// Ledger is the per-member half of an engine: where one member's
// virtual time went in the current traversal. The engines' per-member
// states embed one; a spare promotion re-binds the state, and the
// ledger with it, to another rank.
type Ledger struct {
	Breakdown trace.Breakdown
	// Levels counts the levels run so far; it labels every span.
	Levels     int
	LevelStats []trace.LevelStat
	// Rec is the rank's observability stream (nil = tracing off; every
	// method on a nil stream no-ops).
	Rec *obs.Rank
	// Visited counts the vertices the member has set a parent for,
	// VisitedEdges the stored adjacencies of visited sources it holds.
	// Host-only tallies, never priced; Finish folds them.
	Visited, VisitedEdges int64

	// rerunFloor marks a member Run reruns from the roots: the detection
	// floor its next Reset restarts the clock from (0 = not marked).
	// reownNs is the modelled cost of a promoted spare adopting the dead
	// rank's state out of node scratch, parked by Core.Run's promotion
	// and charged to the Reown phase when the member reruns.
	rerunFloor float64
	reownNs    float64

	// codecs are the member's wire codecs, whose per-traversal decisions
	// the result aggregates.
	codecs []*wire.Codec
}

// Track registers the member's wire codecs (nil entries are skipped: a
// level or mode without compression has none).
func (l *Ledger) Track(codecs ...*wire.Codec) {
	for _, c := range codecs {
		if c != nil {
			l.codecs = append(l.codecs, c)
		}
	}
}

// begin opens a traversal, before its first attempt.
func (l *Ledger) begin() {
	l.rerunFloor, l.reownNs = 0, 0
	for _, c := range l.codecs {
		c.ResetStats()
	}
}

// Reset opens an attempt on the rank now holding the member: the ledger
// is wiped and bound to the rank's obs stream. On a member Run marked
// for a rerun from the roots, the clock resumes at the detection floor
// plus any parked re-own transfer — rolling back state never rolls back
// time — and the floor is charged to Recovery, the transfer to Reown,
// each with its span, and one "recover" event marks the floor.
func (l *Ledger) Reset(p *mpi.Proc) {
	l.Breakdown = trace.Breakdown{}
	l.Levels = 0
	l.LevelStats = l.LevelStats[:0]
	l.Visited, l.VisitedEdges = 0, 0
	l.Rec = p.Obs()
	if l.rerunFloor == 0 {
		return
	}
	floor, reown := l.rerunFloor, l.reownNs
	l.rerunFloor, l.reownNs = 0, 0
	p.RestoreClock(floor + reown)
	l.Breakdown.Add(trace.Recovery, floor)
	l.Rec.PhaseSpan(trace.Recovery, 0, 0, floor)
	l.Rec.FaultEvent("recover", floor)
	if reown > 0 {
		l.Breakdown.Add(trace.Reown, reown)
		l.Rec.PhaseSpan(trace.Reown, 0, p.Clock()-reown, p.Clock())
	}
}

// Charge adds the [start, end) interval to phase ph and, when tracing
// is on, records it as a span at the current level. The breakdown is
// charged end-start whether or not a stream is attached, so results are
// bit-identical either way.
func (l *Ledger) Charge(ph trace.Phase, start, end float64) {
	l.Breakdown.Add(ph, end-start)
	l.Rec.PhaseSpan(ph, l.Levels, start, end)
}

// ChargeComm is Charge for a communication section that began at t0:
// the reliable transport's stall accrued inside it (retransmission
// waits, resequencer holds, ack round-trips) is carved into trace.Xport,
// so lossy-link protocol time never masquerades as algorithmic
// communication in the breakdown. x0 is p.XportNs() sampled at the
// section start; with no loss plan the delta is exactly 0.0 and the
// charge is bit-identical to Charge.
func (l *Ledger) ChargeComm(p *mpi.Proc, ph trace.Phase, t0, x0 float64) {
	end := p.Clock()
	dx := p.XportNs() - x0
	l.Breakdown.Add(trace.Xport, dx)
	l.Breakdown.Add(ph, end-t0-dx)
	l.Rec.PhaseSpan(ph, l.Levels, t0, end)
}

// Compute advances the rank by ns of modelled computation and charges
// ph what the clock moved.
func (l *Ledger) Compute(p *mpi.Proc, ph trace.Phase, ns float64) {
	t0 := p.Clock()
	p.Compute(ns)
	l.Charge(ph, t0, p.Clock())
}

// ComputeNominal is Compute charging ns itself — the modelled cost, not
// the interval a straggler factor may have stretched.
func (l *Ledger) ComputeNominal(p *mpi.Proc, ph trace.Phase, ns float64) {
	t0 := p.Clock()
	p.Compute(ns)
	l.Breakdown.Add(ph, ns)
	l.Rec.PhaseSpan(ph, l.Levels, t0, p.Clock())
}

// StallBarrier separates computation from communication the way the
// paper's profiling does: the wait at the barrier is load-imbalance
// stall (Fig. 11), the dissemination rounds themselves are charged to
// the communication phase comm.
func (l *Ledger) StallBarrier(p *mpi.Proc, comm trace.Phase) {
	t0 := p.Clock()
	wait := p.Barrier()
	l.Breakdown.Add(trace.Stall, wait)
	l.Breakdown.Add(comm, p.Clock()-t0-wait)
	l.Rec.PhaseSpan(trace.Stall, l.Levels, t0, t0+wait)
	l.Rec.PhaseSpan(comm, l.Levels, t0+wait, p.Clock())
}

// EndLevel records the level that began at start: its stat (the frontier
// it discovered, nf vertices with mf edges, both allreduced), its span,
// and the frontier gauges — size, and density over the slots a frontier
// could fill (vertices, times lanes for a batch).
func (l *Ledger) EndLevel(p *mpi.Proc, start float64, bottomUp bool, nf, mf, slots int64) {
	now := p.Clock()
	l.LevelStats = append(l.LevelStats, trace.LevelStat{
		Level: l.Levels, BottomUp: bottomUp, NF: nf, MF: mf, Ns: now - start,
	})
	l.Rec.LevelSpan(bottomUp, l.Levels, start, now)
	l.Rec.Sample(obs.GaugeFrontier, now, float64(nf))
	l.Rec.Sample(obs.GaugeFrontierDensity, now, float64(nf)/float64(slots))
}
