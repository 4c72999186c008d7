package collective

import "numabfs/internal/mpi"

// GatherBinomial gathers every member's segment of buf (per layout l) to
// the member at group position 0, along a binomial tree: in round k,
// members whose position has bit k set send everything their subtree
// holds to the parent at distance 2^k. Non-root members' buffers are
// used as staging for their subtree's segments.
func (g *Group) GatherBinomial(p *mpi.Proc, buf []uint64, l Layout) {
	n := g.Size()
	if n == 1 {
		return
	}
	v := g.Pos(p.Rank())
	streams := g.streamTable(tabGather)
	for k, d := 0, 1; d < n; k, d = k+1, d*2 {
		if v&d != 0 && v&(d-1) == 0 {
			// I send my subtree: positions [v, min(v+d, n)).
			count := min(d, n-v)
			p.SendPayload(g.ranks[v-d], tagGather+k, g.runBytes(l, v, count), mpi.Payload{ID: v, Q: count, Words: buf}, streams[k][v])
			return // a sender is done after handing off its subtree
		}
		if v&(2*d-1) == 0 && v+d < n {
			// My child's subtree: positions [v+d, min(v+2d, n)).
			m := p.Recv(g.ranks[v+d], tagGather+k)
			g.landRun(buf, l, &m.Payload, v+d, min(d, n-v-d))
		}
	}
}

// BcastBinomial broadcasts words[0:total] of buf from the member at group
// position 0 to all members along a binomial tree (rounds from the top
// bit down, the standard MPI algorithm).
func (g *Group) BcastBinomial(p *mpi.Proc, buf []uint64, total int64) {
	n := g.Size()
	if n == 1 {
		return
	}
	v := g.Pos(p.Rank())
	streams := g.streamTable(tabBcast)
	for k, d := 0, 1<<(len(streams)-1); d >= 1; k, d = k+1, d/2 {
		switch {
		case v%(2*d) == 0 && v+d < n:
			p.SendPayload(g.ranks[v+d], tagBcast+k, total*8, mpi.Payload{Words: buf[:total]}, streams[k][v])
		case v%(2*d) == d:
			m := p.Recv(g.ranks[v-d], tagBcast+k)
			copy(buf[:total], m.Payload.Words)
		}
	}
}
