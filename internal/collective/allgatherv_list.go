package collective

import (
	"numabfs/internal/mpi"
	"numabfs/internal/wire"
)

const tagGatherList = 0x8000

// AllgathervInt64 gathers every member's variable-length int64 vector to
// all members (a ring, like AllgatherRing, but over lists whose lengths
// only their owners know — the "expand" phase of the 2-D BFS gathers
// frontier vertex lists along a processor column this way). The result
// is indexed by group position; the caller's own slice is referenced,
// not copied.
func (g *Group) AllgathervInt64(p *mpi.Proc, mine []int64) [][]int64 {
	n := g.Size()
	me := g.Pos(p.Rank())
	out := make([][]int64, n)
	out[me] = mine
	if n == 1 {
		return out
	}
	next := g.ranks[(me+1)%n]
	prev := g.ranks[(me-1+n)%n]
	streams := g.ringStreams()[me]

	t0 := p.Clock()
	for s := 0; s < n-1; s++ {
		sendID := (me - s + n) % n
		recvID := (me - s - 1 + n) % n
		payload := out[sendID]
		m := p.SendRecvPayload(next, tagGatherList+s, int64(len(payload))*8, mpi.Payload{Vals: payload},
			prev, tagGatherList+s, streams)
		out[recvID] = m.Payload.Vals
	}
	p.Obs().Collective("allgatherv-list", t0, p.Clock())
	return out
}

// AllgathervInt64Compressed is AllgathervInt64 with every list
// travelling in the codec's varint-delta format: each member encodes
// its own list once, receivers decode and forward the still-encoded
// payload. out, when non-nil, is reused (out[i] is overwritten via
// out[i][:0]); pass nil on first use. The member's own list is
// referenced, not copied, as in the uncompressed variant.
func (g *Group) AllgathervInt64Compressed(p *mpi.Proc, mine []int64, out [][]int64, c *wire.Codec) [][]int64 {
	n := g.Size()
	me := g.Pos(p.Rank())
	if out == nil {
		out = make([][]int64, n)
	}
	out[me] = mine
	if n == 1 {
		return out
	}
	next := g.ranks[(me+1)%n]
	prev := g.ranks[(me-1+n)%n]
	streams := g.ringStreams()[me]

	t0 := p.Clock()
	pl, ns := c.EncodeList(mine)
	p.Compute(ns)
	cur := mpi.Payload{ID: me, Wire: pl}
	for s := 0; s < n-1; s++ {
		recvID := (me - s - 1 + n) % n
		m := p.SendRecvWire(next, tagListC+s, cur, prev, tagListC+s, streams)
		cur = m.Payload
		if cur.ID != recvID {
			panic("collective: compressed list ring received unexpected list")
		}
		var dns float64
		out[recvID], dns = c.DecodeList(cur.Wire, out[recvID][:0])
		p.Compute(dns)
	}
	p.Obs().Collective("allgatherv-list-comp", t0, p.Clock())
	return out
}
