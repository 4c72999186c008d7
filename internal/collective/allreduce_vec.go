package collective

import (
	"math/bits"

	"numabfs/internal/mpi"
)

// laneVec is the wire payload of AllreduceSumVec64. It travels by value
// through the message's untyped hatch: boxing into `any` copies the
// array, so a receiver's read can never race the sender's next mutation
// of its accumulator — the property the scalar allreduce gets for free
// from its int64 payload. (A typed Vals slice would alias x instead.)
type laneVec [64]int64

// AllreduceSumVec64 sums a 64-element int64 vector over the group,
// in place: on return every member's x holds the element-wise global sum.
// This is the batched engine's per-lane frontier accounting — one
// 512-byte collective replaces the 64 scalar allreduces a lane-at-a-time
// run would pay. Same structure as AllreduceSumInt64: recursive doubling
// on power-of-two groups, linear gather + broadcast otherwise.
func (g *Group) AllreduceSumVec64(p *mpi.Proc, x *[64]int64) {
	n := g.Size()
	if n == 1 {
		return
	}
	me := g.Pos(p.Rank())
	t0 := p.Clock()
	const bytes = 64 * 8
	if n&(n-1) != 0 {
		// Linear fallback: gather to position 0, broadcast the sum.
		if me == 0 {
			for i := 1; i < n; i++ {
				m := p.Recv(g.ranks[i], tagAllreduceV)
				in := m.Payload.Any.(laneVec)
				for k := range x {
					x[k] += in[k]
				}
			}
			for i := 1; i < n; i++ {
				p.Send(g.ranks[i], tagAllreduceV+1, bytes, laneVec(*x), 1)
			}
		} else {
			p.Send(g.ranks[0], tagAllreduceV, bytes, laneVec(*x), 1)
			m := p.Recv(g.ranks[0], tagAllreduceV+1)
			*x = [64]int64(m.Payload.Any.(laneVec))
		}
		p.Obs().Collective("allreduce-vec", t0, p.Clock())
		return
	}
	steps := bits.TrailingZeros(uint(n))
	xor := g.xorStreams()
	for k := 0; k < steps; k++ {
		d := 1 << uint(k)
		partner := g.ranks[me^d]
		m := p.SendRecv(partner, tagAllreduceV+2+k, bytes, laneVec(*x),
			partner, tagAllreduceV+2+k, xor[k][me])
		in := m.Payload.Any.(laneVec)
		for j := range x {
			x[j] += in[j]
		}
	}
	p.Obs().Collective("allreduce-vec", t0, p.Clock())
}
