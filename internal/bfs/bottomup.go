package bfs

import (
	"numabfs/internal/bitmap"
	"numabfs/internal/machine"
	"numabfs/internal/mpi"
	"numabfs/internal/trace"
)

// bottomUpLevel runs one bottom-up step: every unvisited owned vertex
// scans its neighbours, short-circuiting through in_queue_summary, until
// it finds a parent in the current frontier (in_queue). The new frontier
// is then allgathered — the communication phase the paper optimizes.
// Returns the allreduced size and edge sum of the next frontier.
func (rs *rankState) bottomUpLevel(p *mpi.Proc) (nf, mf int64) {
	r := rs.r

	// Clear the owned out_queue segment (a streaming memset).
	wlo := r.wordLayout.Displs[rs.pos]
	wcnt := r.wordLayout.Counts[rs.pos]
	own := rs.outQ.Words()[wlo : wlo+wcnt]
	for i := range own {
		own[i] = 0
	}
	rs.ComputeNominal(p, trace.BUComp, rs.team.Parallel(machine.PhaseLoad{SeqBytes: wcnt * 8, SeqLoc: r.OutLoc}))

	// Computation: scan unvisited owned vertices.
	count0, edges0 := rs.Visited, rs.VisitedEdges
	res := rs.team.For(rs.csr.NumLocal(), r.Opts.Chunk, rs.bottomUpScan)
	nfLocal, mfLocal := rs.Visited-count0, rs.VisitedEdges-edges0
	rs.ComputeNominal(p, trace.BUComp, res.Ns)

	rs.StallBarrier(p, trace.BUComm)

	// Communication: the two allgathers of Fig. 1.
	t0, x0 := p.Clock(), p.XportNs()
	rs.allgatherInQueue(p)
	rs.allgatherSummary(p)
	rs.ChargeComm(p, trace.BUComm, t0, x0)
	rs.Breakdown.BUCommCount++

	// Frontier accounting.
	t0, x0 = p.Clock(), p.XportNs()
	nf = r.NC.World.AllreduceSumInt64(p, nfLocal)
	mf = r.NC.World.AllreduceSumInt64(p, mfLocal)
	rs.ChargeComm(p, trace.BUComm, t0, x0)
	return nf, mf
}

// bottomUpScan runs the scan kernel over owned vertices [lo, hi), one
// omp chunk. The candidate mask of each 64 vertices — unvisited, with a
// non-empty row — is derived from the parent and row-pointer arrays, so
// there is no stored mask to checkpoint, restore or re-own.
func (rs *rankState) bottomUpScan(lo, hi int64, load *machine.PhaseLoad) {
	r := rs.r
	sc := bitmap.BottomUpScan{RowPtr: rs.csr.RowPtr, Col: rs.csr.Col, Front: rs.inQ, Sum: rs.inSum, Keep: 63, Drop: 63}
	for base := lo; base < hi; base += 64 {
		p, rp := rs.parent[base:min(base+64, hi)], sc.RowPtr[base:]
		var mask uint64
		for b := range p {
			mask |= uint64(p[b]&(rp[b]-rp[b+1])) >> 63 << uint(b)
		}
		for k, i := range sc.Rows[:sc.Word(base, mask)] {
			rs.parent[i] = sc.Nbrs[k]
			rs.outQ.Set(rs.csr.Lo + i)
			rs.VisitedEdges += sc.RowPtr[i+1] - sc.RowPtr[i]
		}
	}
	rs.Visited += sc.Hits
	load.Random = append(load.Random,
		machine.Access{Count: sc.Edges, StructBytes: r.sumBytes, Loc: r.SumLoc},
		machine.Access{Count: sc.Probes, StructBytes: r.inqBytes, Loc: r.InqLoc},
		machine.Access{Count: sc.Hits, StructBytes: rs.parentBytes(), Loc: r.pl.PrivateLoc},
	)
	// Parent scan + adjacency stream.
	load.SeqBytes = (hi-lo)*8 + sc.Edges*8
	load.SeqLoc = r.pl.GraphLoc
	load.CPUOps = sc.Edges*2 + (hi - lo)
}

// switchToBottomUp converts the queued frontier (rs.next) into the
// bitmap representation and performs the initial allgather so every rank
// starts the bottom-up procedure with a coherent in_queue. Charged to
// the Switch phase (Fig. 11).
func (rs *rankState) switchToBottomUp(p *mpi.Proc) {
	r := rs.r
	t0 := p.Clock()

	wlo := r.wordLayout.Displs[rs.pos]
	wcnt := r.wordLayout.Counts[rs.pos]
	own := rs.outQ.Words()[wlo : wlo+wcnt]
	for i := range own {
		own[i] = 0
	}
	frontier := int64(len(rs.next))
	for _, v := range rs.next {
		rs.outQ.Set(v)
	}
	rs.next = rs.next[:0]
	load := machine.PhaseLoad{
		Random:   []machine.Access{{Count: frontier, StructBytes: wcnt * 8, Loc: r.OutLoc}},
		SeqBytes: wcnt * 8,
		SeqLoc:   r.OutLoc,
	}
	p.Compute(rs.team.Parallel(load))

	// Synchronize before touching shared buffers, then allgather.
	p.Barrier()
	rs.allgatherInQueue(p)
	rs.allgatherSummary(p)
	rs.Charge(trace.Switch, t0, p.Clock())
}

// switchToTopDown extracts the owned slice of the freshly allgathered
// in_queue into the frontier queue (parents were already set during the
// bottom-up step). Charged to the Switch phase.
func (rs *rankState) switchToTopDown(p *mpi.Proc) {
	r := rs.r
	t0 := p.Clock()
	lo, hi := r.Part.Range(rs.pos)
	rs.queue = rs.inQ.AppendSetBits(rs.queue[:0], lo, hi)
	load := machine.PhaseLoad{
		SeqBytes: (hi - lo) / 8,
		SeqLoc:   r.InqLoc,
		CPUOps:   int64(len(rs.queue)) * 2,
	}
	p.Compute(rs.team.Parallel(load))
	rs.Charge(trace.Switch, t0, p.Clock())
}
