package collective

import "numabfs/internal/mpi"

// LeaderAllgatherPipelined is a HierKNEM-style overlapped leader
// allgather (Ma et al., IPDPS'12, discussed in the paper's related
// work): while the leaders' ring moves node slice k+1 over the network,
// the *children* pull the already-delivered slice k out of the leader's
// mapped buffer themselves (kernel-assisted copies that do not occupy
// the leader), overlapping intra- and inter-node work.
//
// The paper's argument — "if the intra-node communication cost is even
// higher than that of inter-node, overlapping will not help" (Section V)
// — is directly measurable against SchemeLeader and the shared
// schemes: the pipelined total approaches max(inter, pull) + one chunk
// of fill, which is still bounded below by the per-child copy time that
// sharing eliminates outright.
//
// buf is each rank's private full-size buffer with its own segment in
// place (as under SchemeLeader with a nil src); on return every rank's
// buf holds all segments.
func (nc *NodeComm) LeaderAllgatherPipelined(p *mpi.Proc, buf []uint64, l Layout) StepTimes {
	var st StepTimes
	node := nc.Nodes[p.Node()]
	nl := nc.nodeLayout(l)
	cfg := p.World().Config()
	total := l.TotalWords()

	// The leader works in a node-shared staging buffer so the children
	// can pull completed chunks without involving it (the kernel-assist).
	stage := p.SharedWords("hierknem-stage", total)

	// Step 1 (small, not overlapped): children hand their segments to
	// the leader, which stages them.
	t0 := p.Clock()
	me := nc.World.Pos(p.Rank())
	mine := nc.members[p.Node()]
	if nc.IsLeader(p) {
		copy(l.seg(stage, me), l.seg(buf, me))
		p.Compute(float64(l.Counts[me]*8) / cfg.ShmCopyBW)
		for _, child := range mine[1:] {
			m := p.Recv(child, tagPipe)
			copy(l.seg(stage, nc.World.Pos(child)), m.Payload.Words)
		}
	} else {
		seg := l.seg(buf, me)
		p.SendPayload(nc.leaderOf[p.Node()], tagPipe, int64(len(seg))*8, mpi.Payload{Words: seg}, len(mine)-1)
	}
	st.GatherNs = p.Clock() - t0

	// Steps 2+3, pipelined at the ring's natural granularity: each time
	// the leader's ring step delivers another node's slice into the
	// staging buffer, the children pull it into their private buffers on
	// their own clocks while the leaders run the next step. (Chunking
	// finer than a ring step would only serialize the ring's hops.)
	nNodes := nc.Leaders.Size()
	notify := func(c int) {
		t0 = p.Clock()
		for _, child := range mine[1:] {
			p.Send(child, tagPipe+1+c, 0, nil, len(mine)-1)
		}
		st.BcastNs += p.Clock() - t0
	}
	pull := func(c int) {
		t0 = p.Clock()
		p.Recv(nc.leaderOf[p.Node()], tagPipe+1+c)
		slice := (nc.nodePos[p.Node()] - c + nNodes) % nNodes
		lo, hi := nl.Displs[slice], nl.Displs[slice]+nl.Counts[slice]
		copy(buf[lo:hi], stage[lo:hi])
		// The node's children pull concurrently, sharing the memory
		// system — the same contention the notify stream hint carries.
		p.Compute(float64((hi-lo)*8) * float64(len(mine)-1) / cfg.ShmCopyBW)
		st.BcastNs += p.Clock() - t0
	}
	if nc.IsLeader(p) {
		// The leader's own slice is available immediately.
		notify(0)
		meL := nc.Leaders.Pos(p.Rank())
		n := nNodes
		if n > 1 {
			next := nc.Leaders.Ranks()[(meL+1)%n]
			prev := nc.Leaders.Ranks()[(meL-1+n)%n]
			for s := 0; s < n-1; s++ {
				sendID := (meL - s + n) % n
				recvID := (meL - s - 1 + n) % n
				seg := nl.seg(stage, sendID)
				t0 = p.Clock()
				m := p.SendRecvPayload(next, tagPipe+0x800+s, int64(len(seg))*8, mpi.Payload{Words: seg},
					prev, tagPipe+0x800+s, 2)
				copy(nl.seg(stage, recvID), m.Payload.Words)
				st.InterNs += p.Clock() - t0
				notify(s + 1)
			}
		}
	} else {
		for c := 0; c < nNodes; c++ {
			pull(c)
		}
	}
	// The leader's result lives in the staging buffer; materialize it in
	// its private view too (a no-cost aliasing in a real mapping).
	if nc.IsLeader(p) {
		copy(buf, stage[:total])
	}
	node.barrierVia(p)
	return st
}
