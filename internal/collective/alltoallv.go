package collective

import (
	"numabfs/internal/mpi"
	"numabfs/internal/wire"
)

// AlltoallvInt64 exchanges variable-length int64 vectors between all
// members using the pairwise-exchange algorithm: n-1 steps, at step s
// member i sends to (i+s) mod n and receives from (i-s) mod n. The
// top-down BFS phase uses this to route discovered (vertex, parent)
// pairs to their owners, exactly as the Graph500 mpi_simple code does.
//
// send[j] is the vector destined for group position j (send[me] is
// delivered locally, without a message). The result is indexed by source
// group position.
func (g *Group) AlltoallvInt64(p *mpi.Proc, send [][]int64) [][]int64 {
	n := g.Size()
	me := g.Pos(p.Rank())
	recv := make([][]int64, n)
	recv[me] = send[me]
	if n == 1 {
		return recv
	}
	t0 := p.Clock()
	for s := 1; s < n; s++ {
		dst := (me + s) % n
		src := (me - s + n) % n
		payload := send[dst]
		// BFS top-down exchanges are sparse: in most steps only the few
		// ranks owning frontier hubs carry data, so a rank's transfer
		// contends with its own outbound and inbound streams (2), not
		// with every co-located rank's empty synchronization message.
		m := p.SendRecvPayload(g.ranks[dst], tagAlltoall+s, int64(len(payload))*8, mpi.Payload{Vals: payload},
			g.ranks[src], tagAlltoall+s, 2)
		recv[src] = m.Payload.Vals
	}
	p.Obs().Collective("alltoallv", t0, p.Clock())
	return recv
}

// AlltoallvInt64Compressed is AlltoallvInt64 with every vector
// travelling in the codec's varint-delta list format: the same pairwise
// exchange, but each step encodes the outgoing vector into a per-step
// scratch slot (EncodeListSlot — a payload in flight is never
// overwritten by a later encode) and decodes the incoming payload on
// arrival. out, when non-nil, is reused (out[i] is overwritten via
// out[i][:0]); pass nil on first use. The member's own vector is
// referenced, not copied, as in the uncompressed variant.
func (g *Group) AlltoallvInt64Compressed(p *mpi.Proc, send [][]int64, out [][]int64, c *wire.Codec) [][]int64 {
	n := g.Size()
	me := g.Pos(p.Rank())
	if out == nil {
		out = make([][]int64, n)
	}
	out[me] = send[me]
	if n == 1 {
		return out
	}
	t0 := p.Clock()
	for s := 1; s < n; s++ {
		dst := (me + s) % n
		src := (me - s + n) % n
		pl, ens := c.EncodeListSlot(send[dst], s)
		p.Compute(ens)
		// Same stream count as the raw pairwise exchange: sparse BFS fold
		// steps contend with the rank's own two streams, not with every
		// co-located rank.
		m := p.SendRecvWire(g.ranks[dst], tagAlltoallC+s, mpi.Payload{ID: me, Wire: pl},
			g.ranks[src], tagAlltoallC+s, 2)
		if m.Payload.ID != src {
			panic("collective: compressed alltoallv received unexpected vector")
		}
		var dns float64
		out[src], dns = c.DecodeList(m.Payload.Wire, out[src][:0])
		p.Compute(dns)
	}
	p.Obs().Collective("alltoallv-comp", t0, p.Clock())
	return out
}
