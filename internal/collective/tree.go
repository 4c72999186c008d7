package collective

import "numabfs/internal/mpi"

// GatherBinomial gathers every member's segment of buf (per layout l) to
// the member at group position rootPos, along a binomial tree: in round
// k, members whose (virtual) position has bit k set send everything their
// subtree holds to the parent at distance 2^k. Non-root members' buffers
// are used as staging for their subtree's segments.
func (g *Group) GatherBinomial(p *mpi.Proc, buf []uint64, l Layout, rootPos int) {
	n := g.Size()
	if n == 1 {
		return
	}
	me := g.Pos(p.Rank())
	v := (me - rootPos + n) % n // virtual position: root is 0
	streams := g.streamTable(tabTree + 2*rootPos)
	for k, d := 0, 1; d < n; k, d = k+1, d*2 {
		if v&d != 0 && v&(d-1) == 0 {
			// I send my subtree: virtual positions [v, min(v+d, n)).
			first, count := (v+rootPos)%n, min(d, n-v)
			p.SendPayload(g.ranks[(v-d+rootPos)%n], tagGather+k, g.runBytes(l, first, count), mpi.Payload{ID: first, Q: count, Words: buf}, streams[k][me])
			return // a sender is done after handing off its subtree
		}
		if v&(2*d-1) == 0 && v+d < n {
			// My child's subtree: virtual positions [v+d, min(v+2d, n)).
			m := p.Recv(g.ranks[(v+d+rootPos)%n], tagGather+k)
			g.landRun(buf, l, &m.Payload, (v+d+rootPos)%n, min(d, n-v-d))
		}
	}
}

// BcastBinomial broadcasts words[0:total] of buf from the member at group
// position rootPos to all members along a binomial tree (rounds from the
// top bit down, the standard MPI algorithm).
func (g *Group) BcastBinomial(p *mpi.Proc, buf []uint64, total int64, rootPos int) {
	n := g.Size()
	if n == 1 {
		return
	}
	me := g.Pos(p.Rank())
	v := (me - rootPos + n) % n
	streams := g.streamTable(tabTree + 2*rootPos + 1)
	for k, d := 0, 1<<(len(streams)-1); d >= 1; k, d = k+1, d/2 {
		switch {
		case v%(2*d) == 0 && v+d < n:
			dst := g.ranks[(v+d+rootPos)%n]
			p.SendPayload(dst, tagBcast+k, total*8, mpi.Payload{Words: buf[:total]}, streams[k][me])
		case v%(2*d) == d:
			src := g.ranks[(v-d+rootPos)%n]
			m := p.Recv(src, tagBcast+k)
			copy(buf[:total], m.Payload.Words)
		}
	}
}
