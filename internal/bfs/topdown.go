package bfs

import (
	"numabfs/internal/machine"
	"numabfs/internal/mpi"
	"numabfs/internal/trace"
)

// tdChunk is the work-unit granularity (in edges) of the top-down
// phase's dynamic schedule. Frontier vertices vary in degree by orders
// of magnitude on R-MAT graphs, so the reference code's scheduler splits
// hub adjacency lists rather than assigning whole vertices.
const tdChunk = 256

// topDownLevel explores the current frontier queue: for each frontier
// vertex, every neighbour is either visited locally (owner is this rank)
// or routed to its owner as a (child, parent) pair, the mpi_simple way.
// Returns the allreduced size and edge sum of the next frontier.
func (rs *rankState) topDownLevel(p *mpi.Proc) (nf, mf int64) {
	r := rs.r
	var nfLocal, mfLocal int64

	// Computation: scan the frontier queue's adjacency lists.
	for i := range rs.send {
		rs.send[i] = rs.send[i][:0]
	}
	me := rs.pos
	var edges, localTries, remote int64
	for _, u := range rs.queue {
		for _, w := range rs.csr.Neighbors(u) {
			v := int64(w)
			edges++
			if o := r.Part.Owner(v); o == me {
				localTries++
				if d, dm := rs.tryVisit(v, u); d {
					nfLocal++
					mfLocal += dm
				}
			} else {
				remote++
				rs.send[o] = append(rs.send[o], v, u)
			}
		}
	}
	load := machine.PhaseLoad{
		Random: []machine.Access{
			// Frontier rows start at random CSR positions.
			{Count: int64(len(rs.queue)), StructBytes: rs.csr.BytesApprox(), Loc: r.pl.GraphLoc},
			// Local visits probe the parent array at random offsets.
			{Count: localTries, StructBytes: rs.parentBytes(), Loc: r.pl.PrivateLoc},
		},
		SeqBytes: edges*8 + remote*16,
		SeqLoc:   r.pl.GraphLoc,
		CPUOps:   edges * 3,
	}
	rs.ComputeNominal(p, trace.TDComp, rs.team.ForBalanced(edges, tdChunk, load))

	rs.StallBarrier(p, trace.TDComm)

	// Communication: route discovered pairs to their owners.
	t0, x0 := p.Clock(), p.XportNs()
	rs.recv = r.NC.World.AlltoallvInt64Into(p, rs.send, rs.recv, nil)
	rs.ChargeComm(p, trace.TDComm, t0, x0)

	// Process received pairs (charged as top-down computation: the owner
	// re-checks visitation just as the reference code does).
	var pairs int64
	for src, vec := range rs.recv {
		if src == me {
			continue
		}
		for k := 0; k+1 < len(vec); k += 2 {
			pairs++
			if d, dm := rs.tryVisit(vec[k], vec[k+1]); d {
				nfLocal++
				mfLocal += dm
			}
		}
	}
	proc := machine.PhaseLoad{
		Random: []machine.Access{
			{Count: pairs, StructBytes: rs.parentBytes(), Loc: r.pl.PrivateLoc},
		},
		SeqBytes: pairs * 16,
		SeqLoc:   r.pl.PrivateLoc,
		CPUOps:   pairs * 2,
	}
	rs.ComputeNominal(p, trace.TDComp, rs.team.ForBalanced(pairs, tdChunk, proc))

	// Frontier accounting for termination and the hybrid switch.
	t0, x0 = p.Clock(), p.XportNs()
	nf = r.NC.World.AllreduceSumInt64(p, nfLocal)
	mf = r.NC.World.AllreduceSumInt64(p, mfLocal)
	rs.ChargeComm(p, trace.TDComm, t0, x0)
	return nf, mf
}

// tryVisit visits owned vertex v with parent u if unvisited; reports
// whether it was newly discovered and v's degree (the next frontier's
// edge contribution).
func (rs *rankState) tryVisit(v, u int64) (bool, int64) {
	i := v - rs.csr.Lo
	if rs.parent[i] >= 0 {
		return false, 0
	}
	rs.parent[i] = u
	rs.next = append(rs.next, v)
	rs.Visited++
	d := rs.csr.Degree(v)
	rs.VisitedEdges += d
	return true, d
}

// parentBytes is the parent array footprint for the cache model.
func (rs *rankState) parentBytes() int64 { return rs.csr.NumLocal() * 8 }
