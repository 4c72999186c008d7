package collective

import (
	"numabfs/internal/mpi"
	"numabfs/internal/wire"
)

// The list collectives move variable-length int64 vectors. Both take an
// optional codec — nil sends raw values; with one every vector travels
// in the varint-delta list format, encode/decode time charged — and a
// caller-retained result table: out is reused when it has one entry per
// member (pass nil on first use, keep what comes back). The member's own
// vector is referenced, not copied. Raw entries alias the senders'
// vectors; under a codec every other entry is rewritten in the table's
// own storage, out[i][:0] — decoded from the wire, or appended from the
// sender's vector by the replay — so a codec table owns its storage and
// must not move from raw calls to codec calls.

// AllgathervInt64 gathers every member's vector to all members, indexed
// by group position: a ring schedule (shift.go) over lists whose lengths
// only their owners know — the 2-D BFS's "expand" phase along a column.
func (g *Group) AllgathervInt64(p *mpi.Proc, mine []int64, out [][]int64, c *wire.Codec) [][]int64 {
	return g.lists(p, [2]int{tagGatherList, tagListC}, nil, mine, out, c, [2]string{"allgatherv-list", "allgatherv-list-comp"})
}

// AlltoallvInt64 is AlltoallvInt64Into with a fresh table and no codec.
func (g *Group) AlltoallvInt64(p *mpi.Proc, send [][]int64) [][]int64 {
	return g.AlltoallvInt64Into(p, send, nil, nil)
}

// AlltoallvInt64Into exchanges vectors between all members using the
// pairwise-exchange algorithm, a schedule (shift.go): n-1 steps, at step
// s member i sends to (i+s) mod n and receives from (i-s) mod n. The
// top-down BFS phase uses this to route discovered (vertex, parent)
// pairs to their owners, exactly as the Graph500 mpi_simple code does.
// send[j] is the vector destined for group position j (send[me] is
// delivered locally, without a message); the result is indexed by
// source group position.
func (g *Group) AlltoallvInt64Into(p *mpi.Proc, send, out [][]int64, c *wire.Codec) [][]int64 {
	return g.lists(p, [2]int{tagAlltoall, tagAlltoallC}, send, nil, out, c, [2]string{"alltoallv", "alltoallv-comp"})
}

// lists runs the ring of out, whose own entry is mine (send nil), or the
// exchange of send, its op and label picked by whether c is set. An
// exchange's transfer contends with its own two streams, not every
// co-located rank's: BFS top-down exchanges are sparse.
func (g *Group) lists(p *mpi.Proc, op [2]int, send [][]int64, mine []int64, out [][]int64, c *wire.Codec, label [2]string) [][]int64 {
	n, me := g.Size(), g.Pos(p.Rank())
	if len(out) != n {
		out = make([][]int64, n)
	}
	a := shiftArgs{send: send, out: out, c: c, streams: 2}
	if send == nil {
		a.send, a.streams = out, g.streamTable(tagRing)[0][me]
	} else {
		mine = send[me]
	}
	if out[me] = mine; n > 1 {
		t0 := p.Clock()
		g.shift(p, me, op[b2i(c != nil)], &a)
		p.Obs().Collective(label[b2i(c != nil)], t0, p.Clock())
	}
	return out
}
