package msbfs

import (
	"numabfs/internal/machine"
	"numabfs/internal/mpi"
	"numabfs/internal/trace"
)

// tdChunk is the dynamic-schedule granularity (in edges) of the
// top-down sweep, matching bfs.
const tdChunk = 256

// topDownSweep explores the top-down lanes' frontiers in one pass over
// the owned in-plane segment: every owned vertex whose lane word
// intersects tdMask expands once, and each neighbour is claimed for ALL
// of those lanes together — locally when this rank owns it, otherwise
// routed to its owner as a (child, parent, laneMask) triple. Owned
// vertices are scanned in ascending order and received triples in
// sender-position order, so the subsequence of claims carrying any one
// lane is exactly the claim sequence a batch-1 run of that lane
// produces — the bit-identity invariant, which lets deriveParents
// recover the parent the modelled triple carries.
func (ls *laneState) topDownSweep(p *mpi.Proc, tdMask uint64, nfL, mfL *[64]int64) {
	r := ls.r
	for i := range ls.send {
		ls.send[i] = ls.send[i][:0]
	}
	me := ls.pos
	lo, hi := ls.csr.Lo, ls.csr.Hi
	ownedN := hi - lo
	var fverts, edges, localTries, remote int64
	for v := lo; v < hi; v++ {
		w := ls.inPlane.Word(v) & tdMask
		if w == 0 {
			continue
		}
		fverts++
		for _, id := range ls.csr.Neighbors(v) {
			u := int64(id)
			edges++
			if o := r.Part.Owner(u); o == me {
				localTries++
				ls.claim(u, w, nfL, mfL)
			} else {
				remote++
				ls.send[o] = append(ls.send[o], u, v, int64(w))
			}
		}
	}
	load := machine.PhaseLoad{
		Random: []machine.Access{
			// Frontier rows start at random CSR positions.
			{Count: fverts, StructBytes: ls.csr.BytesApprox(), Loc: r.pl.GraphLoc},
			// Local claims probe the visited lane words at random offsets.
			{Count: localTries, StructBytes: ls.visBytes(), Loc: r.pl.PrivateLoc},
		},
		// Owned in-plane scan + adjacency stream + triple staging.
		SeqBytes: ownedN*8 + edges*8 + remote*24,
		SeqLoc:   r.pl.GraphLoc,
		CPUOps:   ownedN + edges*3,
	}
	items := max(edges, ownedN) // the plane scan itself when frontiers are tiny
	ls.Compute(p, trace.TDComp, ls.team.ForBalanced(items, tdChunk, load))

	ls.StallBarrier(p, trace.TDComm)

	// Route discovered triples to their owners — one alltoallv for the
	// whole batch where sequential runs pay one per lane.
	t0, x0 := p.Clock(), p.XportNs()
	ls.recv = r.NC.World.AlltoallvInt64Into(p, ls.send, ls.recv, nil)
	ls.ChargeComm(p, trace.TDComm, t0, x0)

	// Process received triples in sender-position order (the owner
	// re-checks visitation lane by lane, as bfs does bit by bit).
	var triples int64
	for src, vec := range ls.recv {
		if src == me {
			continue
		}
		for k := 0; k+2 < len(vec); k += 3 {
			triples++
			ls.claim(vec[k], uint64(vec[k+2])&tdMask, nfL, mfL)
		}
	}
	proc := machine.PhaseLoad{
		Random: []machine.Access{
			{Count: triples, StructBytes: ls.visBytes(), Loc: r.pl.PrivateLoc},
		},
		SeqBytes: triples * 24,
		SeqLoc:   r.pl.PrivateLoc,
		CPUOps:   triples * 3,
	}
	ls.Compute(p, trace.TDComp, ls.team.ForBalanced(triples, tdChunk, proc))
}
