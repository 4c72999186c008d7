package bfs

import (
	"numabfs/internal/collective"
	"numabfs/internal/machine"
	"numabfs/internal/mpi"
)

// allgatherInQueue runs the in_queue allgather of Fig. 1 under the
// configured optimization level. On entry every rank's new frontier bits
// sit in its owned out_queue segment; on return every rank's in_queue
// view holds the full new frontier bitmap.
func (rs *rankState) allgatherInQueue(p *mpi.Proc) {
	x := collective.Exchange{Codec: rs.inqCodec}
	if x.Chunks = rs.r.Chunks(); x.Chunks > 0 {
		rs.overlapAllgatherInQueue(p, x)
		return
	}
	rs.r.AllgatherFrontier(p, rs.team, rs.inQ.Words(), rs.outQ.Words(), rs.r.wordLayout, rs.pos, x)
}

// allgatherSummary rebuilds this rank's share of in_queue_summary from
// the freshly allgathered in_queue and runs the summary allgather — the
// second, much smaller allgather of Fig. 1.
func (rs *rankState) allgatherSummary(p *mpi.Proc) {
	r := rs.r
	bitLo, bitHi := rs.shareBits()
	if r.Chunks() > 0 {
		// Most of the share was rebuilt chunk-by-chunk inside the
		// pipelined allgather; only the gaps remain.
		rs.rebuildShareGaps(p, bitLo, bitHi)
	} else {
		var written int64
		if bitLo < bitHi {
			written = rs.inSum.RebuildRange(rs.inQ, bitLo, bitHi)
		}
		p.Compute(rs.team.Parallel(machine.PhaseLoad{
			SeqBytes: (bitHi-bitLo)/8 + written*8,
			SeqLoc:   r.InqLoc,
		}))
	}
	r.AllgatherSummary(p, rs.inSum.Bits().Words(), r.sumLayout, rs.sumCodec)
}

// shareBits returns the base-bit range of this rank's in_queue_summary
// share: a summary word covers 64 granules.
func (rs *rankState) shareBits() (int64, int64) {
	r := rs.r
	return ShareRange(r.sumLayout, rs.pos, 64*r.Opts.Granularity, r.Params.NumVertices())
}
