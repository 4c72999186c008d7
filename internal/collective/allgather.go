package collective

import (
	"math/bits"

	"numabfs/internal/mpi"
	"numabfs/internal/wire"
)

// RingThresholdBytes is the default Thakur–Gropp switch point: recursive
// doubling for shorter allgathers, ring for longer ones (as in
// MPICH/Open MPI). The machine configuration can override it (and the
// Scaled preset shrinks it along with the payloads).
const RingThresholdBytes = 512 << 10

// tag space: each collective family uses a distinct, widely spaced base
// (steps are added to the base, and stay below the next one) so
// mismatched programs fail loudly. Every base is in this block.
const (
	tagRing       = 0x1000
	tagRecDouble  = 0x2000
	tagGather     = 0x3000
	tagBcast      = 0x4000
	tagAlltoall   = 0x5000
	tagAllreduce  = 0x6000
	tagBruck      = 0x7000
	tagGatherList = 0x8000
	tagRingC      = 0x9000
	tagListC      = 0xA000
	tagSeg        = 0xB000
	tagAlltoallC  = 0xC000
	tagAllreduceV = 0xD000
	tagPipe       = 0xE000
)

// Allgather performs an allgatherv over the group into buf: member i's
// segment (layout seg i) must already be in place in its own buf; on
// return every member's buf holds all segments. Algorithm selection
// models the MPI library default (Thakur-Gropp): recursive doubling for
// short payloads on power-of-two groups, ring for long payloads — the
// in_queue allgather is always in the ring regime at paper scales.
func (g *Group) Allgather(p *mpi.Proc, buf []uint64, l Layout) {
	threshold := p.World().Config().AllgatherRingThreshold
	if threshold <= 0 {
		threshold = RingThresholdBytes
	}
	n := g.Size()
	if n&(n-1) == 0 && l.TotalWords()*8 < threshold {
		g.AllgatherRecDouble(p, buf, l)
		return
	}
	g.AllgatherRing(p, buf, l)
}

// AllgatherRing is the ring (bucket) allgatherv: n-1 steps; at step s
// member i forwards the segment it received at step s-1 (starting with
// its own) to its successor. Total traffic is m*(n-1) bytes — Eq. (1).
func (g *Group) AllgatherRing(p *mpi.Proc, buf []uint64, l Layout) {
	g.exchangeRing(p, buf, l, Exchange{})
}

// AllgatherRingCompressed is AllgatherRing with each segment travelling
// in the codec's wire formats. Wire bytes drive the modelled transfer
// cost while the network's raw counters keep Eq. (1)'s logical volume
// visible, so one run exposes the compression saving.
func (g *Group) AllgatherRingCompressed(p *mpi.Proc, buf []uint64, l Layout, c *wire.Codec) {
	g.exchangeRing(p, buf, l, Exchange{Codec: c})
}

// exchangeRing is the whole-group ring under an exchange description:
// the send topology is the same in every step (i -> i+1), so the
// stream counts come from the cached ring table.
func (g *Group) exchangeRing(p *mpi.Proc, buf []uint64, l Layout, x Exchange) {
	t0 := p.Clock()
	x.ring(p, g, buf, l, g.ringStreams()[g.Pos(p.Rank())])
	p.Obs().Collective(labels[labelRing][x.variant(false)], t0, p.Clock())
}

// allgatherRing is the blocking ring driver, with an explicit stream
// count (the parallelized allgather's concurrent subgroups each account
// for the others' NIC streams). A nil codec moves raw words: every step
// sends the member's own copy of the segment it forwards. With a codec
// every member encodes its own segment once, and receivers decode into
// place — before posting the next step; the pipelined driver posts
// first — then forward the still-encoded payload.
func (g *Group) allgatherRing(p *mpi.Proc, buf []uint64, l Layout, streams int, c *wire.Codec) {
	n := g.Size()
	if n == 1 {
		return
	}
	me := g.Pos(p.Rank())
	next := g.ranks[(me+1)%n]
	prev := g.ranks[(me-1+n)%n]

	cur := mpi.Payload{ID: me}
	if c != nil {
		var ns float64
		cur.Wire, ns = c.Encode(l.seg(buf, me))
		p.Compute(ns)
	}
	for s := 0; s < n-1; s++ {
		var m mpi.Msg
		if c != nil {
			m = p.SendRecvWire(next, tagRingC+s, cur, prev, tagRingC+s, streams)
		} else {
			cur.Words = l.seg(buf, cur.ID)
			m = p.SendRecvPayload(next, tagRing+s, int64(len(cur.Words))*8, cur, prev, tagRing+s, streams)
		}
		cur = m.Payload
		if cur.ID != (me-s-1+n)%n {
			panic("collective: ring allgather received unexpected segment")
		}
		if c != nil {
			p.Compute(c.Decode(l.seg(buf, cur.ID), cur.Wire))
		} else {
			copy(l.seg(buf, cur.ID), cur.Words)
		}
	}
}

// AllgatherRecDouble is the recursive-doubling allgatherv for
// power-of-two group sizes: log2(n) steps; at step k, members at distance
// 2^k exchange everything they hold. Short-message optimal.
func (g *Group) AllgatherRecDouble(p *mpi.Proc, buf []uint64, l Layout) {
	n := g.Size()
	if n == 1 {
		return
	}
	if n&(n-1) != 0 {
		panic("collective: recursive doubling needs a power-of-two group")
	}
	me := g.Pos(p.Rank())
	t0 := p.Clock()
	steps := bits.TrailingZeros(uint(n))
	xor := g.xorStreams()
	for k := 0; k < steps; k++ {
		d := 1 << uint(k)
		streams := xor[k]
		partner := me ^ d
		// After k steps I hold the d segments of my d-aligned block;
		// my partner holds the sibling block of the 2d-aligned pair.
		myBase := me &^ (d - 1)
		pBase := partner &^ (d - 1)
		own := make([]int, 0, d)
		theirs := make([]int, 0, d)
		for i := 0; i < d; i++ {
			own = append(own, myBase+i)
			theirs = append(theirs, pBase+i)
		}
		payload := blocks{ids: own, data: make([][]uint64, len(own))}
		for j, id := range own {
			payload.data[j] = l.seg(buf, id)
		}
		m := p.SendRecv(g.ranks[partner], tagRecDouble+k, payload.words()*8, payload,
			g.ranks[partner], tagRecDouble+k, streams[me])
		in := m.Payload.Any.(blocks)
		for j, id := range in.ids {
			if id != theirs[j] {
				panic("collective: recursive doubling received unexpected segment")
			}
			copy(l.seg(buf, id), in.data[j])
		}
	}
	p.Obs().Collective("allgather-recdouble", t0, p.Clock())
}

// AllreduceSumInt64 returns the sum of x over the group using recursive
// doubling on 8-byte scalars (with a fold-in preliminary step for
// non-power-of-two sizes handled by a simple linear fallback).
func (g *Group) AllreduceSumInt64(p *mpi.Proc, x int64) int64 {
	n := g.Size()
	if n == 1 {
		return x
	}
	me := g.Pos(p.Rank())
	t0 := p.Clock()
	if n&(n-1) != 0 {
		// Linear fallback: gather to position 0, broadcast the sum.
		var sum int64
		if me == 0 {
			sum = x
			for i := 1; i < n; i++ {
				m := p.Recv(g.ranks[i], tagAllreduce)
				sum += m.Payload.Scalar
			}
			for i := 1; i < n; i++ {
				p.SendPayload(g.ranks[i], tagAllreduce+1, 8, mpi.Payload{Scalar: sum}, 1)
			}
		} else {
			p.SendPayload(g.ranks[0], tagAllreduce, 8, mpi.Payload{Scalar: x}, 1)
			m := p.Recv(g.ranks[0], tagAllreduce+1)
			sum = m.Payload.Scalar
		}
		p.Obs().Collective("allreduce", t0, p.Clock())
		return sum
	}
	steps := bits.TrailingZeros(uint(n))
	xor := g.xorStreams()
	sum := x
	for k := 0; k < steps; k++ {
		d := 1 << uint(k)
		partner := g.ranks[me^d]
		m := p.SendRecvPayload(partner, tagAllreduce+2+k, 8, mpi.Payload{Scalar: sum},
			partner, tagAllreduce+2+k, xor[k][me])
		sum += m.Payload.Scalar
	}
	p.Obs().Collective("allreduce", t0, p.Clock())
	return sum
}
