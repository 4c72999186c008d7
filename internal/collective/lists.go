package collective

import (
	"numabfs/internal/mpi"
	"numabfs/internal/wire"
)

// The list collectives move variable-length int64 vectors. Both take an
// optional codec — nil sends raw values; with one every vector travels
// in the varint-delta list format, encode/decode time charged — and a
// caller-retained result table: out is reused when it has one entry per
// member (pass nil on first use, keep what comes back). Raw entries
// alias the senders' vectors; decoded entries overwrite out[i][:0], so
// a table must not move from raw calls to codec calls. The member's own
// vector is referenced, not copied, either way.

// AllgathervInt64 gathers every member's vector to all members (a ring,
// like AllgatherRing, but over lists whose lengths only their owners
// know — the "expand" phase of the 2-D BFS gathers frontier vertex lists
// along a processor column this way). The result is indexed by group
// position. Raw, it is a shift schedule (shift.go); with a codec each
// member encodes its own list once and receivers forward the
// still-encoded payload.
func (g *Group) AllgathervInt64(p *mpi.Proc, mine []int64, out [][]int64, c *wire.Codec) [][]int64 {
	n := g.Size()
	me := g.Pos(p.Rank())
	if len(out) != n {
		out = make([][]int64, n)
	}
	out[me] = mine
	if n == 1 {
		return out
	}
	t0 := p.Clock()
	streams := g.ringStreams()[me]
	if c == nil {
		g.shift(p, me, tagGatherList, shiftArgs{send: out, out: out}, streams)
	} else {
		enc, ns := c.EncodeList(mine)
		p.Compute(ns)
		g.codecRing(p, me, tagListC, enc, streams, func(k int, pl wire.Payload) (ns float64) {
			out[k], ns = c.DecodeList(pl, out[k][:0])
			return ns
		})
	}
	p.Obs().Collective([2]string{"allgatherv-list", "allgatherv-list-comp"}[b2i(c != nil)], t0, p.Clock())
	return out
}

// AlltoallvInt64 is AlltoallvInt64Into with a fresh table and no codec.
func (g *Group) AlltoallvInt64(p *mpi.Proc, send [][]int64) [][]int64 {
	return g.AlltoallvInt64Into(p, send, nil, nil)
}

// AlltoallvInt64Into exchanges vectors between all members using the
// pairwise-exchange algorithm: n-1 steps, at step s member i sends to
// (i+s) mod n and receives from (i-s) mod n (raw, a shift schedule:
// shift.go). The top-down BFS phase uses this to route discovered
// (vertex, parent) pairs to their owners, exactly as the Graph500
// mpi_simple code does.
//
// send[j] is the vector destined for group position j (send[me] is
// delivered locally, without a message). The result is indexed by source
// group position. With a codec each step encodes the outgoing vector
// into a per-step scratch slot (EncodeListSlot — a payload in flight is
// never overwritten by a later encode) and decodes on arrival.
func (g *Group) AlltoallvInt64Into(p *mpi.Proc, send, out [][]int64, c *wire.Codec) [][]int64 {
	n := g.Size()
	me := g.Pos(p.Rank())
	if len(out) != n {
		out = make([][]int64, n)
	}
	out[me] = send[me]
	if n == 1 {
		return out
	}
	t0 := p.Clock()
	// BFS top-down exchanges are sparse: in most steps only the few ranks
	// owning frontier hubs carry data, so a rank's transfer contends with
	// its own outbound and inbound streams (2), not with every co-located
	// rank's empty synchronization message.
	if c == nil {
		g.shift(p, me, tagAlltoall, shiftArgs{send: send, out: out}, 2)
	} else {
		for s := 1; s < n; s++ {
			dst := (me + s) % n
			src := (me - s + n) % n
			pl, ns := c.EncodeListSlot(send[dst], s)
			p.Compute(ns)
			m := p.SendRecvWire(g.ranks[dst], tagAlltoallC+s, mpi.Payload{ID: me, Wire: pl},
				g.ranks[src], tagAlltoallC+s, 2)
			if m.Payload.ID != src {
				panic("collective: compressed alltoallv received unexpected vector")
			}
			out[src], ns = c.DecodeList(m.Payload.Wire, out[src][:0])
			p.Compute(ns)
		}
	}
	p.Obs().Collective([2]string{"alltoallv", "alltoallv-comp"}[b2i(c != nil)], t0, p.Clock())
	return out
}
