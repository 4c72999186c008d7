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
//
// Past its first step (the shared in_queue gather, a schedule) it is the
// one collective that always runs as messages (executor 1): after each
// ring step a leader notifies its children with blocking sends, which
// couples every node's children to the leaders' ring, so no single
// group's gate can walk it.
func (nc *NodeComm) LeaderAllgatherPipelined(p *mpi.Proc, buf []uint64, l Layout) {
	node := nc.Nodes[p.Node()]
	nl := nc.views(l).node
	total := l.TotalWords()

	// The leader works in a node-shared staging buffer so the children
	// can pull completed chunks without involving it (the kernel-assist).
	staging := p.SharedWords("hierknem-stage", total)

	// Step 1 (small, not overlapped): children hand their segments to
	// the leader, which stages them — the shared in_queue gather.
	nc.gatherToLeader(p, staging, buf, l)
	me, mine := nc.World.Pos(p.Rank()), node.Ranks()

	// Steps 2+3, pipelined at the ring's natural granularity: each time
	// the leader's ring step delivers another node's slice into the
	// staging buffer, the children pull it into their private buffers on
	// their own clocks while the leaders run the next step. (Chunking
	// finer than a ring step would only serialize the ring's hops.)
	n := nc.Leaders.Size()
	notify := func(c int) {
		for _, child := range mine[1:] {
			p.SendPayload(child, tagPipe+1+c, 0, mpi.Payload{}, len(mine)-1)
		}
	}
	if nc.IsLeader(p) {
		// The leader's own slice is available immediately.
		notify(0)
		meL := nc.Leaders.Pos(p.Rank())
		next := nc.Leaders.Ranks()[(meL+1)%n]
		prev := nc.Leaders.Ranks()[(meL-1+n)%n]
		for s := 0; s < n-1; s++ {
			sendID := (meL - s + n) % n
			recvID := (meL - s - 1 + n) % n
			seg := nl.seg(staging, sendID)
			sr := p.IsendPayload(next, tagPipe+0x800+s, int64(len(seg))*8, mpi.Payload{Words: seg}, 2)
			rr := p.Irecv(prev, tagPipe+0x800+s, nil)
			rr.Wait()
			sr.Wait()
			copy(nl.seg(staging, recvID), rr.Msg().Payload.Words)
			notify(s + 1)
		}
	} else {
		for c := 0; c < n; c++ {
			p.Recv(nc.leaderOf(p), tagPipe+1+c)
			slice := (me/nc.PPN - c + n) % n
			lo, hi := nl.Displs[slice], nl.Displs[slice]+nl.Counts[slice]
			copy(buf[lo:hi], staging[lo:hi])
			// The node's children pull concurrently, sharing the memory
			// system — the same contention the notify stream hint carries.
			p.Compute(float64((hi-lo)*8) * float64(len(mine)-1) / p.World().Config().ShmCopyBW)
		}
	}
	// The leader's result lives in the staging buffer; materialize it in
	// its private view too (a no-cost aliasing in a real mapping).
	if nc.IsLeader(p) {
		copy(buf, staging[:total])
	}
	node.barrierVia(p)
}
