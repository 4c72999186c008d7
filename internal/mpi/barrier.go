package mpi

import (
	"math"
	"sync/atomic"
)

// barrier is a reusable arrival point over a fixed set of ranks: the
// repository's one arrival primitive. sync is a barrier in virtual
// time — it also computes the maximum clock among arrivals — and backs
// Proc.Barrier over the live ranks of the world and Proc.NodeBarrier
// over those of a node, whose modelled cost those callers charge. A
// Gate (gate.go) is the same arrival, host-only, with a schedule replay
// run by the last member.
//
// An arrival counts itself. The last one runs the caller's completion,
// resets the count, bumps the generation and wakes the members; every
// other one waits, through its own waitFor, for the generation to move.
// The atomics are sequentially consistent, so the completion sees every
// write the members made before arriving, and a waiter that sees the new
// generation sees every write of the completion.
type barrier struct {
	members []*Proc
	arrived atomic.Int32
	gen     atomic.Uint64

	// sync's state: an arrival folds its clock into cur before counting
	// itself, and the completion publishes the maximum in a parity
	// buffer — a rank cannot be two generations ahead of any other, so
	// two slots suffice. Clocks are non-negative, so the order of their
	// IEEE-754 bit patterns is their numeric order and the running
	// maximum is an integer one.
	cur    atomic.Uint64
	result [2]float64
}

// arrive blocks p until every member has arrived; the last one calls
// last with the generation all of them arrived at before releasing them.
func (b *barrier) arrive(p *Proc, last func(gen uint64)) {
	gen := b.gen.Load()
	if int(b.arrived.Add(1)) < len(b.members) {
		p.waitFor(func() bool { return b.gen.Load() != gen })
		return
	}
	last(gen)
	b.arrived.Store(0)
	b.gen.Store(gen + 1)
	for _, m := range b.members {
		m.wakeIfParked(p)
	}
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
	b.arrive(p, func(gen uint64) {
		b.result[gen&1] = math.Float64frombits(b.cur.Load())
		b.cur.Store(0)
	})
	return b.result[gen&1]
}
