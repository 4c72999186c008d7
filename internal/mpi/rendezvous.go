package mpi

import (
	"sync/atomic"

	"numabfs/internal/wire"
)

// This file is the host-side rendezvous under every point-to-point
// call: how a message gets from the sender's goroutine to the
// receiver's and how the transfer end time gets back. It prices
// nothing — virtual time is charged by the callers (proc.go,
// nonblocking.go) through deliver (transport.go).
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
// Park/wake. waitFor is the only place a rank goroutine blocks: the
// three waits of this file and the barrier's wait for its generation
// (barrier.go) all go through it. A rank that finds its condition false
// (slot still full, slot still empty, done not set, generation not
// moved) announces a park in its parked word, checks the condition
// again, commits the park by compare-and-swap and only then blocks on
// its own capacity-1 wake channel. Whoever makes a condition true stores
// it first and then loads the target's parked word; finding a park, it
// claims it by compare-and-swap back to none, and sends a wake token if
// what it claimed was committed. Go's atomics are sequentially
// consistent, so of "waiter announces, loads condition" and "waker
// stores condition, loads parked" at least one load sees the other
// side's store: either the waiter sees the condition and withdraws, or
// the waker sees the park and claims it — and a waiter whose park was
// claimed before it could commit does not block but looks again. So
// exactly the committed parks get a token, one each: the channel is
// empty whenever a rank commits, the claimer's send never blocks, and a
// rank whose word says committed stays blocked until some running rank
// claims it. A rank waits on one condition at a time but may be woken
// for any (its message was taken, its send was completed, a message
// arrived, a barrier it has since left released), which the wait loop
// absorbs by re-checking. Nothing spins or yields: a blocked rank is a
// goroutine blocked on a channel receive.
//
// Quiescence. A rank's word is quiet when it says committed or gone
// (its body returned, crashed or unwound), and the world is quiescent
// when every live rank's is: nobody runs, so nobody will claim anybody,
// and nothing can change any more. Nothing looks for that until a
// modelled fault has fired; from then on every rank that commits a park
// or goes checks, after saying so in its word, by reading every word
// twice (World.abortIfQuiescent). Each commit takes a new park number, so
// a word that reads the same both times did not change in between, and
// if all are quiet and unchanged they were all quiet at the instant
// between the two passes — the checking rank included, which does
// nothing but check. The last rank to go quiet finds everybody else
// already there, so a quiescent world is always noticed.
//
// Abort. Storing the world's abort flag and waking what is parked is
// all of it: a committed rank is claimed and finds the flag on its next
// pass; a rank that has not committed yet loads the flag after
// announcing and never blocks. Either way it unwinds with errAborted.

// Payload is what a message carries, as a concrete value so that the
// hot collectives box nothing: a segment id and chunk index (meaning
// defined by the collective), raw words, an int64 list, an int64
// scalar, or an encoded wire.Payload. Any is the escape hatch for
// everything else — the untyped payload parameter of Send, SendRecv and
// Isend lands there — and costs an interface allocation per message
// when the value is not pointer-shaped.
type Payload struct {
	ID, Q  int
	Words  []uint64
	Vals   []int64
	Scalar int64
	Wire   wire.Payload
	Any    any
}

// message is an in-flight transfer and its acknowledgement. bytes is
// what crosses the wire; raw is the logical (pre-compression) size,
// equal to bytes except for encoded payloads. The sender writes
// everything down to payload before publishing the cell; the receiver
// writes end (the sender's completion time, so both clocks agree) and
// then sets done.
type message struct {
	src, tag int
	bytes    int64
	raw      int64
	streams  int
	payload  Payload
	sent     float64 // sender's clock when the send was posted

	end  float64
	done atomic.Uint32
}

// slot returns the rendezvous slot carrying messages from src to dst.
func (w *World) slot(dst, src int) *atomic.Pointer[message] {
	return &w.slots[dst*len(w.procs)+src]
}

// newMessage takes a cell from the rank's free-list (or allocates one)
// and fills it for posting at the current clock. The payload travels by
// pointer between the exported entry points and here, and from the cell
// straight into the receiver's Msg, so a message copies it twice in all.
func (p *Proc) newMessage(tag int, wireBytes, rawBytes int64, streams int, pl *Payload) *message {
	var m *message
	if n := len(p.msgFree); n > 0 {
		m = p.msgFree[n-1]
		p.msgFree = p.msgFree[:n-1]
		m.done.Store(0)
	} else {
		m = new(message)
	}
	m.src, m.tag = p.rank, tag
	m.bytes, m.raw, m.streams = wireBytes, rawBytes, streams
	m.payload = *pl
	m.sent = p.clock
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
	w := p.w
	for !ready() {
		p.parked.Store(parkAnnounced)
		if ok := ready(); ok || w.jobAborted.Load() {
			p.parked.Store(parkNone)
			if ok {
				return
			}
			panic(errAborted{})
		}
		p.parks++
		if !p.parked.CompareAndSwap(parkAnnounced, p.parks<<2|parkCommitted) {
			continue // claimed meanwhile: something changed, look again
		}
		if w.faultFired.Load() {
			w.abortIfQuiescent()
		}
		<-p.wake
	}
}

// wakeIfParked is the waker's half of the protocol: call it after
// storing the condition p may be waiting for.
func (p *Proc) wakeIfParked() {
	for {
		s := p.parked.Load()
		if s < parkAnnounced {
			return
		}
		if p.parked.CompareAndSwap(s, parkNone) {
			if s != parkAnnounced {
				p.wake <- struct{}{}
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
	p.w.procs[dst].wakeIfParked()
}

// take returns the message src has posted to this rank, blocking until
// there is one. The message stays in its slot — and belongs to the
// sender again — until complete.
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
// sender its end time and wakes it whether it waits for the slot (a
// second post) or for the acknowledgement. m must not be touched
// afterwards.
func (p *Proc) complete(m *message, sendEnd float64) {
	src := m.src
	m.end = sendEnd
	p.w.slot(p.rank, src).Store(nil)
	m.done.Store(1)
	p.w.procs[src].wakeIfParked()
}

// await waits for m's acknowledgement and returns the transfer end time.
func (p *Proc) await(m *message) float64 {
	if m.done.Load() == 0 {
		p.waitFor(func() bool { return m.done.Load() != 0 })
	}
	return m.end
}
