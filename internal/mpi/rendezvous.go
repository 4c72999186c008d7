package mpi

import (
	"sync/atomic"

	"numabfs/internal/wire"
)

// This file is the host-side rendezvous under every point-to-point
// call: how a message gets from the sending rank to the receiving one
// and how the transfer end time gets back. It prices nothing — virtual
// time is charged by the callers (proc.go, nonblocking.go) through
// deliver (transport.go).
//
// Slots. The world owns one slot per ordered (dst, src) pair, an atomic
// pointer that is nil (empty) or holds the one message src has posted
// to dst and dst has not completed yet. Only src stores non-nil and
// only dst stores nil, so neither needs a compare-and-swap. A second
// post to the same destination finds the slot full and blocks until
// the receiver completes the first — the capacity-1 mailbox MPI
// programs here are written against.
//
// Messages. A message is a cell the sender owns and recycles through a
// per-rank free-list: the sender fills it, publishes it in the slot and
// later waits for its done flag; the receiver reads it in place, frees
// the slot, stores the sender's end time into it and sets done. The
// cell is message and acknowledgement in one, which is why a
// steady-state transfer allocates nothing. Freeing the slot comes
// before done: once done is set the sender may refill the very same
// cell and publish it in the very same slot, and a late clear would
// erase that next message.
//
// Park/wake. waitFor is the only place a rank blocks: the three waits
// of this file and the arrival's (barrier.go) go through it. A rank whose
// condition is false announces a park in its parked word, checks the
// condition again, commits the park by compare-and-swap and only then
// yields to its worker (sched.go). A waker stores the condition first,
// then loads the target's word and claims a park it finds by
// compare-and-swap back to none, handing a committed one to its worker
// as runnable. Workers run on several threads and Go's atomics are
// sequentially consistent, so of "waiter announces, loads condition" and
// "waker stores condition, loads parked" one load sees the other side's
// store: the waiter withdraws, or the waker claims — and a waiter
// claimed before it could commit looks again instead of yielding. So
// exactly the committed parks are made runnable, once each. A rank may
// be woken for a condition it no longer waits on, which the wait loop
// absorbs by re-checking. Nothing spins: a blocked rank is a suspended
// coroutine.
//
// Quiescence and abort. The world is quiescent when every live rank's
// word says committed or gone: nobody runs, so nothing can change any
// more, and the workers see it as every worker idle or finished. An
// abort stores the world's flag and wakes what is parked: a committed
// rank is claimed and finds the flag on its next pass, one that has not
// committed loads it after announcing. Either way it unwinds with
// errAborted.

// Payload is what a message carries, as a concrete value so that the
// collectives box nothing: a segment id and chunk index (or the first
// position and count of a multi-segment run), raw words, an int64 list
// or scalar, or an encoded wire.Payload. Any is the escape hatch the
// untyped payload of Send, SendRecv and Isend lands in; it costs an
// allocation per message when the value is not pointer-shaped, and only
// tests and the repository benchmark's probes still use it.
type Payload struct {
	ID, Q  int
	Words  []uint64
	Vals   []int64
	Scalar int64
	Wire   wire.Payload
	Any    any
}

// hop is what pricing a delivery reads of a message (deliver,
// transport.go): bytes cross the wire, raw is the logical
// (pre-compression) size, sent is the sender's clock when it posted.
// A replayed collective prices its steps as hops without a message
// (gate.go).
type hop struct {
	src     int
	bytes   int64
	raw     int64
	streams int
	sent    float64
}

// message is an in-flight transfer and its acknowledgement. The sender
// writes everything but end before publishing the cell; the receiver
// writes end (the sender's completion time) and then sets done.
type message struct {
	hop
	tag     int
	payload Payload

	end  float64
	done atomic.Uint32
}

// slot returns the rendezvous slot carrying messages from src to dst.
func (w *World) slot(dst, src int) *atomic.Pointer[message] {
	return &w.slots[dst*len(w.procs)+src]
}

// newMessage takes a cell from the rank's free-list (or allocates one)
// and fills it for posting at the current clock. The payload is copied
// twice in all: into the cell here, and from it into the receiver's Msg.
func (p *Proc) newMessage(tag int, wireBytes, rawBytes int64, streams int, pl *Payload) *message {
	var m *message
	if n := len(p.msgFree); n > 0 {
		m = p.msgFree[n-1]
		p.msgFree = p.msgFree[:n-1]
		m.done.Store(0)
	} else {
		m = new(message)
	}
	m.hop = hop{src: p.rank, bytes: wireBytes, raw: rawBytes, streams: streams, sent: p.clock}
	m.tag = tag
	m.payload = *pl
	return m
}

// putMessage returns a completed cell to the free-list, dropping its
// payload so an idle cell pins none of the vectors it carried.
func (p *Proc) putMessage(m *message) {
	m.payload = Payload{}
	p.msgFree = append(p.msgFree, m)
}

// waitFor parks the rank until ready reports true, failing if the job
// aborts meanwhile. Callers test ready themselves first, so the closure
// is only built on the slow path (it never escapes, so it costs no
// allocation).
func (p *Proc) waitFor(ready func() bool) {
	for !ready() {
		p.parked.Store(parkAnnounced)
		if ok := ready(); ok || p.w.jobAborted.Load() {
			p.parked.Store(parkNone)
			if ok {
				return
			}
			panic(errAborted{})
		}
		if p.parked.CompareAndSwap(parkAnnounced, parkCommitted) {
			p.parks++
			p.fib.yield(false)
		}
		// Claimed, before or after the commit: something changed, look again.
	}
}

// wakeIfParked is the waker's half of the protocol: call it after
// storing the condition p may be waiting for. by is the calling rank,
// nil outside any rank's turn.
func (p *Proc) wakeIfParked(by *Proc) {
	for {
		s := p.parked.Load()
		if s < parkAnnounced {
			return
		}
		if p.parked.CompareAndSwap(s, parkNone) {
			if s == parkCommitted {
				p.wk.ready(p, by)
			}
			return
		}
	}
}

// post publishes m in dst's slot, blocking while the previous message
// to dst is still there.
func (p *Proc) post(dst int, m *message) {
	s := p.w.slot(dst, p.rank)
	if s.Load() != nil {
		p.waitFor(func() bool { return s.Load() == nil })
	}
	s.Store(m)
	p.w.procs[dst].wakeIfParked(p)
}

// take returns the message src has posted to this rank, blocking until
// there is one. It stays in its slot until complete.
func (p *Proc) take(src int) *message {
	s := p.w.slot(p.rank, src)
	m := s.Load()
	if m == nil {
		p.waitFor(func() bool { return s.Load() != nil })
		m = s.Load()
	}
	return m
}

// complete is the receiver's last step: it frees the slot, hands the
// sender its end time and wakes it, whether it waits for the slot or for
// the acknowledgement. m must not be touched afterwards.
func (p *Proc) complete(m *message, sendEnd float64) {
	src := m.src
	m.end = sendEnd
	p.w.slot(p.rank, src).Store(nil)
	m.done.Store(1)
	p.w.procs[src].wakeIfParked(p)
}

// await waits for m's acknowledgement and returns the transfer end time.
func (p *Proc) await(m *message) float64 {
	if m.done.Load() == 0 {
		p.waitFor(func() bool { return m.done.Load() != 0 })
	}
	return m.end
}
