package mpi

import (
	"math"
	"sync/atomic"
)

// barrier is a reusable barrier over a fixed set of ranks that also
// computes the maximum virtual clock among arrivals — the semantics of
// a barrier in virtual time. The same type over the live ranks of the
// world backs Proc.Barrier and over the live ranks of a node
// Proc.NodeBarrier; its modelled cost is charged by those callers.
//
// An arrival folds its clock into cur and then counts itself. The last
// one publishes the maximum, resets the arrival state, bumps the
// generation and wakes the members; every other one waits, through its
// own waitFor, for the generation to move. The atomics are sequentially
// consistent, so the last arrival's load of cur follows every fold, and
// a waiter that sees the new generation sees the published result and
// the reset. A parity buffer holds the result: a rank cannot be two
// generations ahead of any other, so two slots suffice.
//
// Clocks are non-negative, so the order of their IEEE-754 bit patterns
// is their numeric order and the running maximum is an integer one.
type barrier struct {
	members []*Proc
	arrived atomic.Int32
	cur     atomic.Uint64 // max clock bits accumulating for the current generation
	gen     atomic.Uint64
	result  [2]float64 // published max per generation parity
}

// sync blocks p until every member has arrived and returns the maximum
// clock among them.
func (b *barrier) sync(p *Proc, clock float64) float64 {
	gen := b.gen.Load()
	for bits := math.Float64bits(clock); ; {
		old := b.cur.Load()
		if bits <= old || b.cur.CompareAndSwap(old, bits) {
			break
		}
	}
	if int(b.arrived.Add(1)) < len(b.members) {
		p.waitFor(func() bool { return b.gen.Load() != gen })
		return b.result[gen&1]
	}
	max := math.Float64frombits(b.cur.Load())
	b.result[gen&1] = max
	b.cur.Store(0)
	b.arrived.Store(0)
	b.gen.Store(gen + 1)
	for _, m := range b.members {
		m.wakeIfParked(p)
	}
	return max
}
