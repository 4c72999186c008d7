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
// Park/wake. A rank that finds its condition false (slot still full,
// slot still empty, done not set) parks: it stores parked=1, checks the
// condition again, and only then blocks on its own capacity-1 wake
// channel. Whoever makes a condition true stores it first and then
// loads the target's parked flag, sending a wake token (without
// blocking) only when it reads 1. Go's atomics are sequentially
// consistent, so of "waiter stores parked, loads condition" and "waker
// stores condition, loads parked" at least one load sees the other
// side's store: either the waiter sees the condition and does not
// block, or the waker sees parked and sends the token. Both may happen;
// the token is then stale, the next park returns at once, and the wait
// loop re-checks its condition — a spurious wake-up, never a lost one.
// A rank waits on one condition at a time but may be woken for any
// (its message was taken, its send was completed, a message arrived),
// which the same loop absorbs. Nothing spins or yields: a blocked rank
// is a goroutine blocked on a channel receive.
//
// Abort. A failing rank stores the world's abort flag and then sends
// every rank one wake token, parked or not. A rank already parked
// receives it (or an earlier stale one), wakes, and finds the flag on
// its next pass; a rank that has not parked yet loads the flag after
// storing parked and never blocks. Either way it unwinds with
// errAborted. resetAbort clears the flag, every slot, every parked
// flag and every leftover token before the world is reused.

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

// clearSlots empties every slot to and from rank r.
func (w *World) clearSlots(r int) {
	for o := range w.procs {
		w.slot(r, o).Store(nil)
		w.slot(o, r).Store(nil)
	}
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

// putMessage returns a completed cell to the free-list.
func (p *Proc) putMessage(m *message) { p.msgFree = append(p.msgFree, m) }

// waitFor parks the rank until ready reports true, failing if the job
// aborts meanwhile. Callers test ready themselves first, so the closure
// is only built on the slow path (it never escapes, so it costs no
// allocation).
func (p *Proc) waitFor(ready func() bool) {
	for !ready() {
		p.parked.Store(1)
		if ready() {
			p.parked.Store(0)
			return
		}
		if p.w.jobAborted.Load() {
			p.parked.Store(0)
			panic(errAborted{})
		}
		<-p.wake
		p.parked.Store(0)
	}
}

// wakeIfParked is the waker's half of the protocol: call it after
// storing the condition p may be waiting for.
func (p *Proc) wakeIfParked() {
	if p.parked.Load() != 0 {
		p.wakeNow()
	}
}

// wakeNow leaves one wake token for p unless one is already pending.
func (p *Proc) wakeNow() {
	select {
	case p.wake <- struct{}{}:
	default:
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
