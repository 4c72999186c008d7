package msbfs

import (
	"numabfs/internal/bfs"
	"numabfs/internal/collective"
	"numabfs/internal/machine"
	"numabfs/internal/mpi"
	"numabfs/internal/trace"
)

// publishFrontier runs one level boundary: the freshly written owned
// out-plane segments become the next level's in-plane. When any active
// lane runs bottom-up next, every rank needs the WHOLE plane and its
// summary — one allgather round, shared by all 64 lanes; this is the
// amortization the batch exists for, counted in rounds. When every
// active lane runs top-down next, the boundary is a local owned-segment
// copy: top-down reads nothing beyond the owned segment, so sequential
// runs' per-root allgathers simply never happen.
func (ls *laneState) publishFrontier(p *mpi.Proc, needPlane bool) {
	r := ls.r
	wlo := r.planeLayout.Displs[ls.pos]
	wcnt := r.planeLayout.Counts[ls.pos]
	if !needPlane {
		t0 := p.Clock()
		copy(ls.inPlane.Words()[wlo:wlo+wcnt], ls.outPlane.Words()[wlo:wlo+wcnt])
		p.Compute(ls.team.Parallel(machine.PhaseLoad{
			SeqBytes: wcnt * 16, SeqLoc: r.InqLoc,
		}))
		ls.Charge(trace.Switch, t0, p.Clock())
		return
	}
	// Synchronize before touching shared buffers (as bfs's bottom-up
	// conversion does), then the two allgathers of Fig. 1 — once per
	// level for the whole batch.
	ls.StallBarrier(p, trace.BUComm)
	t0, x0 := p.Clock(), p.XportNs()
	r.AllgatherFrontier(p, ls.team, ls.inPlane.Words(), ls.outPlane.Words(), r.planeLayout, ls.pos,
		collective.Exchange{Codec: ls.planeCodec})
	ls.allgatherSummary(p)
	ls.ChargeComm(p, trace.BUComm, t0, x0)
	ls.rounds++
	ls.Breakdown.BUCommCount++
}

// allgatherSummary rebuilds this rank's share of the lane summary from
// the freshly allgathered plane and distributes it — the second, much
// smaller allgather, also paid once per level for the whole batch.
func (ls *laneState) allgatherSummary(p *mpi.Proc) {
	r := ls.r

	// One summary word per granule of Granularity vertices.
	vLo, vHi := bfs.ShareRange(r.sumLayout, ls.pos, r.Opts.Granularity, r.Params.NumVertices())
	var written int64
	if vLo < vHi {
		written = ls.inSum.RebuildRange(ls.inPlane, vLo, vHi)
	}
	p.Compute(ls.team.Parallel(machine.PhaseLoad{
		SeqBytes: (vHi-vLo)*8 + written*8,
		SeqLoc:   r.InqLoc,
	}))
	r.AllgatherSummary(p, ls.inSum.Plane().Words(), r.sumLayout, ls.sumCodec)
}
