package chassis

import (
	"numabfs/internal/mpi"
	"numabfs/internal/simnet"
	"numabfs/internal/trace"
	"numabfs/internal/wire"
)

// Summary is what every traversal reports, whether it served one root
// or a batch of them.
type Summary struct {
	TimeNs         float64 // virtual wall time of the traversal
	TraversedEdges int64   // undirected edges in the traversed component(s)
	Visited        int64   // vertices reached
	TEPS           float64
	Levels         int
	Breakdown      trace.Breakdown // mean across members
	// LevelStats is the frontier growth curve (the lead member's view;
	// the frontier values are allreduced and identical everywhere). The
	// 2-D engine fills MF only in hybrid/bottom-up modes, where the
	// switch heuristic pays for the frontier-edge allreduce; its pure
	// top-down leaves it 0 rather than perturb that mode's cost model.
	LevelStats []trace.LevelStat
	// CommBytes is the exact total network volume (intra- plus
	// inter-node MPI bytes). With compression on these are wire bytes —
	// what actually crossed the network after encoding.
	CommBytes int64
	// RawCommBytes is the logical (pre-compression) volume; it equals
	// CommBytes without compression, and the gap is the saving with it.
	RawCommBytes int64
	// Wire aggregates every member's codec decisions (segments per
	// format, raw vs wire bytes); zero without compression.
	Wire wire.Stats
	// Xport is the reliable-transport ledger: protocol overhead bytes
	// (within CommBytes) and retransmit / corruption / duplicate /
	// reorder / ack counts. All-zero unless the fault plan declares
	// lossy links.
	Xport simnet.Xport
	// Faults lists the rank crashes this traversal survived, in recovery
	// order; empty when no crash fired. When non-empty, CommBytes /
	// RawCommBytes and Wire include the lost attempts' partial traffic
	// (those bytes really crossed the modelled network), so they —
	// unlike TimeNs, TEPS, the parent trees and the Breakdown — are not
	// bit-reproducible across host schedules.
	Faults []*mpi.FaultError
	// MTTRNs is the modelled mean-time-to-repair total of the traversal:
	// for each survived crash, the failure-detection latency (lease
	// expiry for permanent deaths, the plain timeout for transient ones)
	// plus the longest re-own transfer any member paid. Zero when no
	// crash fired.
	MTTRNs float64
	// Epoch is the world-view number the traversal finished on: 0 until
	// a spare promotion, stepped by each (mpi.World.Epoch).
	Epoch int
}

// Result summarizes one BFS iteration (one root) of the 1-D or the 2-D
// engine.
type Result struct {
	Root int64
	Summary
}

// Finish computes a finished traversal's tail into s: the time, the
// breakdown averaged over the members (not the ranks — parked spares
// hold none), the level structure as lead saw it, the network volumes,
// the codec decisions, the members' visit counters added to s.Visited
// and s.TraversedEdges (each undirected edge is stored at both
// endpoints; the batched engine counts per lane and fills them itself),
// TEPS from the result, and the last Run's crash report.
func (c *Core) Finish(s *Summary, lead *Ledger) {
	s.TimeNs = c.W.MaxClock()
	members := c.current()
	var bd trace.Breakdown
	var edges int64
	for _, l := range members {
		s.Visited += l.Visited
		edges += l.VisitedEdges
		bd.Merge(l.Breakdown)
		s.Levels = max(s.Levels, l.Levels)
		for _, codec := range l.codecs {
			s.Wire.Add(codec.Stats())
		}
	}
	s.TraversedEdges += edges / 2
	bd.Scale(1 / float64(len(members)))
	bd.TDLevels = lead.Breakdown.TDLevels
	bd.BULevels = lead.Breakdown.BULevels
	bd.BUCommCount = lead.Breakdown.BUCommCount
	s.Breakdown = bd
	s.LevelStats = append([]trace.LevelStat(nil), lead.LevelStats...)
	vol := c.W.Net().Volume()
	s.CommBytes = vol.IntraBytes + vol.InterBytes
	s.RawCommBytes = vol.RawIntraBytes + vol.RawInterBytes
	s.Xport = vol.Xport
	s.Faults, s.MTTRNs, s.Epoch = c.crashes, c.mttrNs, c.W.Epoch()
	if s.TimeNs > 0 {
		s.TEPS = float64(s.TraversedEdges) / (s.TimeNs / 1e9)
	}
}
