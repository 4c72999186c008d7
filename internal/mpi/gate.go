package mpi

import "fmt"

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
	b       barrier
	op      []int // per member: the collective it entered with
	streams []int // per member: the stream count of its sends

	// The walk's per-step scratch, indexed by member.
	bytes            []int64
	recvEnd, sendEnd []float64
}

// NewGate builds the gate over ranks, in group order. The world resets
// it after a failed attempt, as it does its barriers.
func (w *World) NewGate(ranks []int) *Gate {
	n := len(ranks)
	g := &Gate{
		op: make([]int, n), streams: make([]int, n), bytes: make([]int64, n),
		recvEnd: make([]float64, n), sendEnd: make([]float64, n),
	}
	for _, r := range ranks {
		g.b.members = append(g.b.members, w.procs[r])
	}
	w.gateMu.Lock()
	w.gates = append(w.gates, g)
	w.gateMu.Unlock()
	return g
}

// Pass posts p, the member at position pos, under op (the collective
// and tag it entered with) and streams, and blocks until every member
// has arrived. The last one checks that all entered the same op — a
// mismatch is a program bug, as a tag mismatch is — and calls walk,
// which drives the schedule through Shift; every member leaves at the
// clock the walk gave it. The caller's own arguments must be in place,
// where walk reads them, before Pass.
func (g *Gate) Pass(p *Proc, pos, op, streams int, walk func()) {
	if g.b.members[pos] != p {
		panic(fmt.Sprintf("mpi: rank %d passed a gate as member %d", p.rank, pos))
	}
	g.op[pos], g.streams[pos] = op, streams
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

// Shift replays one step in which every member i sends to member
// (i+d) mod n. move(i, j) moves member i's item into member j's buffers
// and returns its bytes. Each message is priced as SendRecv prices it:
// from the later of both endpoints' clocks, on the receiver, which also
// makes the receiver's obs calls in their SendRecv order — the
// receive's LinkTransfer, then the count of its own send. Every member
// then takes the later of its receive's and its send's end.
func (g *Gate) Shift(d int, move func(i, j int) int64) {
	ms := g.b.members
	n := len(ms)
	for i := range ms {
		g.bytes[i] = move(i, (i+d)%n)
	}
	for r, p := range ms {
		i := (r - d + n) % n
		q := ms[i]
		h := hop{src: q.rank, bytes: g.bytes[i], raw: g.bytes[i], streams: g.streams[i], sent: q.clock}
		g.recvEnd[r], g.sendEnd[i] = p.deliver(&h, max(q.clock, p.clock))
		p.countMsg(ms[(r+d)%n].rank, g.bytes[r], g.bytes[r])
	}
	for i, p := range ms {
		p.clock = max(g.recvEnd[i], g.sendEnd[i])
	}
}

// Parks returns the number of times a rank of the world has parked,
// summed over its ranks. Each rank counts its own; call between runs.
func (w *World) Parks() int64 {
	var n int64
	for _, p := range w.procs {
		n += p.parks
	}
	return n
}
