package collective

import (
	"slices"

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
	tagToLeader   = 0xF000
)

// tagEnd is above every base: Group keeps a stream table per base>>12.
const tagEnd = 0x10000

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
	g.allgatherRing(p, buf, l, g.streamTable(tagRing)[0][g.Pos(p.Rank())], x)
	p.Obs().Collective(labels[labelRing][x.variant(false)], t0, p.Clock())
}

// allgatherRing is the ring driver under an exchange description, with
// an explicit stream count (the parallelized allgather's concurrent
// subgroups each account for the others' NIC streams). The ring is a
// schedule (shift.go), under a codec encoded once at each segment's
// origin; Chunks select its pipelined form, whose chunk count is
// clamped (segChunkCount).
func (g *Group) allgatherRing(p *mpi.Proc, buf []uint64, l Layout, streams int, x Exchange) {
	me := g.Pos(p.Rank())
	op, a := [2]int{tagRing, tagRingC}[b2i(x.Codec != nil)], shiftArgs{buf: buf, l: l, c: x.Codec, streams: streams}
	if x.Chunks > 0 {
		op, a.chunks, a.hook, a.ov = tagSeg, segChunkCount(l, x.Chunks), x.OnChunk, x.Overlap
		a.ov.Segments = a.chunks
	}
	g.shift(p, me, op, &a)
}

// AllgatherRecDouble is the recursive-doubling allgatherv for
// power-of-two group sizes: log2(n) steps; at step k, members at distance
// 2^k exchange everything they hold. Short-message optimal.
func (g *Group) AllgatherRecDouble(p *mpi.Proc, buf []uint64, l Layout) {
	switch n := g.Size(); {
	case n&(n-1) != 0:
		panic("collective: recursive doubling needs a power-of-two group")
	case n > 1:
		t0 := p.Clock()
		g.shift(p, g.Pos(p.Rank()), tagRecDouble, &shiftArgs{buf: buf, l: l})
		p.Obs().Collective("allgather-recdouble", t0, p.Clock())
	}
}

// AllgatherBruck is Bruck's allgather: ceil(log2 n) steps for *any*
// group size (not just powers of two). At each step a member sends every
// block it holds to the member `held` positions behind it and receives
// as many from the member `held` positions ahead, doubling its holdings;
// the final step tops up the remainder. Bruck is the short-message
// algorithm of choice for non-power-of-two groups in MPICH's tuned
// decisions; the repository's ablation experiment compares it with ring
// and recursive doubling on the in_queue allgather. It is a schedule
// (shift.go).
func (g *Group) AllgatherBruck(p *mpi.Proc, buf []uint64, l Layout) {
	g.shift(p, g.Pos(p.Rank()), tagBruck, &shiftArgs{buf: buf, l: l})
}

// GatherBinomial gathers every member's segment of buf (per layout l) to
// the member at group position 0 along a binomial tree, a schedule
// (shift.go). Non-root members' buffers stage their subtree's segments.
func (g *Group) GatherBinomial(p *mpi.Proc, buf []uint64, l Layout) {
	g.shift(p, g.Pos(p.Rank()), tagGather, &shiftArgs{buf: buf, l: l})
}

// GatherLinear gathers every member's segment of buf (per layout l) into
// the buffer of the member at group position 0, which takes them in
// position order while the others send at once, each over `streams`
// streams: a schedule (shift.go), whose position 0 stages nothing.
func (g *Group) GatherLinear(p *mpi.Proc, buf []uint64, l Layout, streams int) {
	g.shift(p, g.Pos(p.Rank()), tagToLeader, &shiftArgs{buf: buf, l: l, streams: streams})
}

// BcastBinomial broadcasts words[0:total] of buf from the member at group
// position 0 to all members along a binomial tree, a schedule.
func (g *Group) BcastBinomial(p *mpi.Proc, buf []uint64, total int64) {
	g.shift(p, g.Pos(p.Rank()), tagBcast, &shiftArgs{buf: buf[:total]})
}

// AllreduceSumInt64 returns the sum of x over the group.
func (g *Group) AllreduceSumInt64(p *mpi.Proc, x int64) int64 {
	v := [1]int64{x}
	g.allreduceSum(p, v[:], tagAllreduce, "allreduce")
	return v[0]
}

// AllreduceSumVec64 sums a 64-element int64 vector over the group, in
// place: on return every member's x holds the element-wise global sum.
// This is the batched engine's per-lane frontier accounting — one
// 512-byte collective replaces the 64 scalar allreduces a lane-at-a-time
// run would pay.
func (g *Group) AllreduceSumVec64(p *mpi.Proc, x *[64]int64) {
	g.allreduceSum(p, x[:], tagAllreduceV, "allreduce-vec")
}

// allreduceSum sums x element-wise over the group, in place, under the
// caller's tag base and obs label, on the member's accumulator: a
// schedule, recursive doubling on power-of-two groups, otherwise a
// gather to position 0 and a broadcast back. As a message a one-element
// x travels by value in Payload.Scalar, a longer one as a Vals copy.
func (g *Group) allreduceSum(p *mpi.Proc, x []int64, tag int, label string) {
	if g.Size() == 1 {
		return
	}
	me := g.Pos(p.Rank())
	t0 := p.Clock()
	g.acc[me] = append(g.acc[me][:0], x...)
	g.shift(p, me, tag, &shiftArgs{sum: g.acc[me], streams: 1})
	copy(x, g.acc[me])
	p.Obs().Collective(label, t0, p.Clock())
}

// sumPayload is a partial sum as a message named id: one element by
// value, a vector as a fresh copy, so no receiver reads an accumulator
// its sender has already added into.
func sumPayload(x []int64, id int) mpi.Payload {
	if len(x) == 1 {
		return mpi.Payload{ID: id, Scalar: x[0]}
	}
	return mpi.Payload{ID: id, Vals: slices.Clone(x)}
}

// addInto adds a sumPayload of len(x) elements into x.
func addInto(x []int64, pl mpi.Payload) {
	if len(x) == 1 {
		x[0] += pl.Scalar
		return
	}
	for i := range x {
		x[i] += pl.Vals[i]
	}
}
