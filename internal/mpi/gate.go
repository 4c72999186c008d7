package mpi

import (
	"fmt"
	"sync"
	"sync/atomic"

	"numabfs/internal/simnet"
)

// Gate is a collective's second executor. Without a crash or a lossy
// link in the fault plan (fault.Injector.Replayable), a collective whose
// steps are a fixed schedule is a function of its members' entry clocks
// alone: every member posts its arguments and parks at the group's gate,
// and the last to arrive walks the whole schedule in one loop — moving
// the data, pricing every message exactly as its receiver's deliver
// would, and leaving every member at the clock its own Isend,
// Irecv and Wait calls would have reached — then wakes each member
// once. The gate itself is host-only: arriving charges no virtual time.
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

	// What Step leaves, by receiver, for a pipelined walk's ledger: its
	// transfer's Begin and End, as Request.BeginNs and EndNs give them.
	Begin, End []float64

	posted []float64 // by member, the clock of its Post

	// The posted step's sizes and stream counts by sender (Post), the
	// members' nodes and ranks, and the α–β price of each link class by
	// stream count, 2·streams + intra (path): Step reads no *Proc to
	// price a message.
	wire, raw  []int64
	streams    []int
	node, rank []int
	paths      []simnet.Path
}

// NewGate builds the gate over ranks, in group order. A failed attempt
// resets it lazily, at its next pass.
func (w *World) NewGate(ranks []int) *Gate {
	n := len(ranks)
	g := &Gate{
		op: make([]int, n), Begin: make([]float64, n), End: make([]float64, n), posted: make([]float64, n),
		node: make([]int, n), rank: append([]int(nil), ranks...), paths: make([]simnet.Path, 4*n+4), w: w,
	}
	g.armed.Store(w.attempt)
	for i, r := range ranks {
		g.b.members = append(g.b.members, w.procs[r])
		g.node[i] = w.procs[r].node
	}
	for k := 2; k < len(g.paths); k++ {
		g.paths[k] = w.net.Path(k&1 == 1, k>>1)
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

// Shift is one step of a schedule: each live sender i — From + j·Every,
// below Below — sends to the member D positions after it (0 < D < n), or
// under Xor (n and D powers of two) to i XOR D. A member receives if its
// sender is live.
type Shift struct {
	D                  int
	Xor                bool
	From, Every, Below int
}

// Peers returns member i's receiver and sender, of n members.
func (s *Shift) Peers(i, n int) (to, from int) {
	if s.Xor {
		return i ^ s.D, i ^ s.D
	}
	if to, from = i+s.D, i-s.D; to >= n {
		to -= n
	}
	if from < 0 {
		from += n
	}
	return to, from
}

// Sends reports whether member i is a live sender of s.
func (s *Shift) Sends(i int) bool { return i >= s.From && i < s.Below && (i-s.From)%s.Every == 0 }

// Full reports whether s is a full step of n members: every member a
// live sender.
func (s *Shift) Full(n int) bool { return s.Every == 1 && s.From == 0 && s.Below == n }

// Post posts the sends of step s — live sender i's of wire[i] bytes
// (raw[i] before encoding) over streams[i] streams — and their receives,
// at their members' clocks now: a send is counted there, as Isend counts
// it. Step is then the step's Waits, over the same rows.
func (g *Gate) Post(s Shift, wire, raw []int64, streams []int) {
	ms := g.b.members
	g.wire, g.raw, g.streams = wire, raw, streams
	for i := s.From; i < s.Below; i += s.Every {
		to, _ := s.Peers(i, len(ms))
		g.posted[i], g.posted[to] = ms[i].clock, ms[to].clock
		ms[i].countMsg(ms[to].rank, wire[i], raw[i])
	}
}

// Step replays the Waits of posted step s, whose items the walk has
// moved already, pricing live sender i's message on its receiver as a
// receive prices it (Proc.deliver): from the later of both endpoints'
// post clocks, over the path table's α and bandwidth, the link factor
// and the jitter asked per message because they depend on virtual time;
// the receiver's recorder gets its LinkTransfer. The sender and the
// receiver then take the later of their clock and the transfer's end,
// as their Wait calls would; pricing reads no clock, so one pass does
// both. The step's volume is tallied here and added to the network
// once. A receiver is computed, not looked up, so the walk's loads do
// not wait on one another.
func (g *Gate) Step(s Shift) {
	ms, n, inj := g.b.members, len(g.b.members), g.w.inj
	var v simnet.Volume
	for i := s.From; i < s.Below; i += s.Every {
		r, _ := s.Peers(i, n)
		bytes, sent := g.wire[i], g.posted[i]
		begin, intra, f := max(sent, g.posted[r]), g.node[i] == g.node[r], 1.0
		if intra {
			v.IntraMsgs, v.IntraBytes, v.RawIntraBytes = v.IntraMsgs+1, v.IntraBytes+bytes, v.RawIntraBytes+g.raw[i]
		} else {
			v.InterMsgs, v.InterBytes, v.RawInterBytes = v.InterMsgs+1, v.InterBytes+bytes, v.RawInterBytes+g.raw[i]
			if f = inj.LinkFactor(g.node[i], g.node[r], begin); f != 1 {
				v.DegradedMsgs++
			}
		}
		dur := g.path(intra, g.streams[i]).Time(bytes, f) + inj.JitterNs(g.rank[i], g.rank[r], sent, bytes)
		end := begin + dur
		ms[r].obs.LinkTransfer(!intra, bytes, begin, end)
		g.Begin[r], g.End[r] = begin, end
		ms[r].clock, ms[i].clock = max(ms[r].clock, end), max(ms[i].clock, end)
	}
	g.w.net.Count(&v)
}

// path returns the α–β price of a message over streams streams, intra-
// node or not: from the table NewGate filled, or past its end from the
// network, whose price of fewer than one intra-node stream panics.
func (g *Gate) path(intra bool, streams int) simnet.Path {
	k := streams << 1
	if intra {
		k++
	}
	if k >= 2 && k < len(g.paths) {
		return g.paths[k]
	}
	return g.w.net.Path(intra, streams)
}

// Member returns the member at position i, for a walk to read its clock
// and charge it computation (Proc.Compute) or obs samples as its own
// calls would: a codec's encode before the step that sends it, its
// decode after.
func (g *Gate) Member(i int) *Proc { return g.b.members[i] }

// Parks returns the number of times a rank of the world has parked,
// summed over its ranks. Each rank counts its own; call between runs.
func (w *World) Parks() int64 {
	var n int64
	for _, p := range w.procs {
		n += p.parks
	}
	return n
}
