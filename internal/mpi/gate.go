package mpi

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Gate is a collective's second executor. Without a crash or a lossy
// link in the fault plan (fault.Injector.Replayable), a collective whose
// steps are a fixed schedule is a function of its members' entry clocks
// alone: every member posts its arguments and parks at the group's gate,
// and the last to arrive walks the whole schedule in one loop — moving
// the data, pricing every message through deliver exactly as its
// receiver would, and leaving every member at the clock its own
// SendRecv calls would have reached — then wakes each member once. The
// gate itself is host-only: arriving charges no virtual time.
type Gate struct {
	b  barrier
	op []int // per member: the collective it entered with

	// The world's attempt the arrivals belong to: the first member to
	// pass after a failed attempt forgets that attempt's arrivals, so
	// the world keeps no list of its gates and a superseded group's gate
	// is ordinary garbage.
	w     *World
	armMu sync.Mutex
	armed atomic.Uint64

	// A walk step's messages, by sender, which the walk fills in before
	// Step: the wire and the raw (pre-encoding) bytes, the stream count,
	// and the compute its receiver is charged after the step (a decode;
	// Step clears it).
	Bytes, Raw []int64
	Streams    []int
	After      []float64

	recvEnd, sendEnd []float64 // Step's scratch
}

// NewGate builds the gate over ranks, in group order. A failed attempt
// resets it lazily, at its next pass.
func (w *World) NewGate(ranks []int) *Gate {
	n := len(ranks)
	g := &Gate{
		op: make([]int, n), Bytes: make([]int64, n), Raw: make([]int64, n), Streams: make([]int, n),
		After: make([]float64, n), recvEnd: make([]float64, n), sendEnd: make([]float64, n), w: w,
	}
	g.armed.Store(w.attempt)
	for _, r := range ranks {
		g.b.members = append(g.b.members, w.procs[r])
	}
	return g
}

// Pass posts p, the member at position pos, under op (the collective
// and tag it entered with), and blocks until every member has arrived.
// The last one checks that all entered the same op — a mismatch is a
// program bug, as a tag mismatch is — and calls walk, which moves the
// data step by step and prices each step through Step; every member
// leaves at the clock the walk gave it. The caller's own arguments must
// be in place, where walk reads them, before Pass.
func (g *Gate) Pass(p *Proc, pos, op int, walk func()) {
	if g.b.members[pos] != p {
		panic(fmt.Sprintf("mpi: rank %d passed a gate as member %d", p.rank, pos))
	}
	if a := g.w.attempt; g.armed.Load() != a {
		g.armMu.Lock()
		if g.armed.Load() != a {
			g.b.arrived.Store(0)
			g.armed.Store(a)
		}
		g.armMu.Unlock()
	}
	g.op[pos] = op
	g.b.arrive(p, func(uint64) {
		for i, o := range g.op {
			if o != op {
				panic(fmt.Sprintf("mpi: rank %d entered collective %#x, rank %d %#x",
					g.b.members[i].rank, o, p.rank, op))
			}
		}
		walk()
	})
}

// Peers returns member i's receiver and sender, of n members, in a step
// in which every member sends to the member d positions after it
// (0 < d < n) — or, under xor (n and d powers of two), to i XOR d.
func Peers(i, n, d int, xor bool) (to, from int) {
	if xor {
		return i ^ d, i ^ d
	}
	if to, from = i+d, i-d; to >= n {
		to -= n
	}
	if from < 0 {
		from += n
	}
	return to, from
}

// Step replays one step of the permutation Peers(·, n, d, xor) whose
// items the walk has moved already, pricing member i's message from
// Bytes[i], Raw[i] and Streams[i] as SendRecv prices it: from the later
// of both endpoints' clocks, on the receiver, which also makes the
// receiver's obs calls in their SendRecv order — the receive's
// LinkTransfer, then the count of its own send. Every member then takes
// the later of its receive's and its send's end, and is charged its
// receive's After. A member's sender is computed, not looked up, so the
// walk's loads do not wait on one another.
func (g *Gate) Step(d int, xor bool) {
	ms := g.b.members
	n := len(ms)
	for r, p := range ms {
		to, i := Peers(r, n, d, xor)
		q := ms[i]
		h := hop{src: q.rank, bytes: g.Bytes[i], raw: g.Raw[i], streams: g.Streams[i], sent: q.clock}
		g.recvEnd[r], g.sendEnd[i] = p.deliver(&h, max(q.clock, p.clock))
		p.countMsg(ms[to].rank, g.Bytes[r], g.Raw[r])
	}
	for r, p := range ms {
		p.clock = max(g.recvEnd[r], g.sendEnd[r])
		if _, i := Peers(r, n, d, xor); g.After[i] > 0 {
			p.Compute(g.After[i])
			g.After[i] = 0
		}
	}
}

// Compute charges member i ns of modelled computation, as its own
// Proc.Compute would, from within a walk: a codec's encode before the
// step that sends it.
func (g *Gate) Compute(i int, ns float64) { g.b.members[i].Compute(ns) }

// Parks returns the number of times a rank of the world has parked,
// summed over its ranks. Each rank counts its own; call between runs.
func (w *World) Parks() int64 {
	var n int64
	for _, p := range w.procs {
		n += p.parks
	}
	return n
}
