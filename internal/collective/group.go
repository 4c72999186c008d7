// Package collective implements the MPI collective algorithms the paper
// uses, measures and optimizes, all built on point-to-point rendezvous
// transfers so their cost emerges from the message pattern:
//
//   - ring and recursive-doubling allgather with the Thakur–Gropp size
//     switch (the "default Open MPI" baseline of Fig. 6);
//   - binomial-tree gather and broadcast;
//   - leader-based allgather (Mamidala et al.) — gather to a node leader,
//     allgather between leaders, broadcast to children (Fig. 5a);
//   - the paper's shared-memory allgather — sharing in_queue removes the
//     broadcast step, sharing out_queue removes the gather step (Fig. 5b);
//   - the paper's parallelized allgather — per-socket subgroups allgather
//     slices concurrently so all NIC streams are busy (Fig. 7, Eq. 2);
//   - pairwise-exchange alltoallv for the top-down phase, and one
//     allreduce, over a scalar or the batched engine's 64 lanes, for
//     frontier counting and termination.
//
// The three node-aware families and the library default are the schemes
// of one entry point, NodeComm.Allgather; whether segments travel
// encoded and whether the rings are pipelined is its Exchange argument,
// not a further function per combination.
//
// All collectives are SPMD: every member of the group calls the same
// function with its own mpi.Proc.
package collective

import (
	"fmt"
	"math/bits"
	"sync/atomic"

	"numabfs/internal/mpi"
	"numabfs/internal/wire"
)

// Group is an ordered set of ranks that communicate collectively.
type Group struct {
	ranks   []int
	pos     map[int]int // rank -> position
	node    []int       // position -> node
	maxNode int

	tables []atomic.Pointer[[][]int] // by slot (streamTable)
	// The schedules' gate and, per member, arguments, codec prices,
	// allreduce accumulators and the chunks a ring holds to forward as
	// messages; the replay's result job and its op (shift.go).
	gate   *mpi.Gate
	posted []shiftArgs
	priced [][]wire.Price
	acc    [][]int64
	held   [][]mpi.Payload
	result *mpi.Share
	op     int
}

// The stream tables' slots: the schedules' shapes, then the binomial
// gather and broadcast from position 0.
const tabRing, tabXor, tabBruck, tabGather, tabBcast = 0, 1, 2, 3, 4

// NewGroup builds a group over the given ranks (in order).
func NewGroup(w *mpi.World, ranks []int) *Group {
	g := &Group{
		ranks:  append([]int(nil), ranks...),
		pos:    make(map[int]int, len(ranks)),
		node:   make([]int, len(ranks)),
		tables: make([]atomic.Pointer[[][]int], tabBcast+1),
		gate:   w.NewGate(ranks), posted: make([]shiftArgs, len(ranks)),
		priced: make([][]wire.Price, len(ranks)), acc: make([][]int64, len(ranks)),
		held: make([][]mpi.Payload, len(ranks)),
	}
	g.result = w.NewShare(len(ranks), g.receive)
	for i, r := range ranks {
		if _, dup := g.pos[r]; dup {
			panic(fmt.Sprintf("collective: rank %d appears twice in group", r))
		}
		g.pos[r] = i
		g.node[i] = w.Proc(r).Node()
		if g.node[i] > g.maxNode {
			g.maxNode = g.node[i]
		}
	}
	return g
}

// WorldGroup returns the group of all ranks in w.
func WorldGroup(w *mpi.World) *Group {
	ranks := make([]int, w.NumProcs())
	for i := range ranks {
		ranks[i] = i
	}
	return NewGroup(w, ranks)
}

// Size returns the number of members.
func (g *Group) Size() int { return len(g.ranks) }

// Ranks returns the member ranks in group order.
func (g *Group) Ranks() []int { return g.ranks }

// Pos returns the position of rank r in the group; it panics if r is not
// a member (calling a collective from a non-member is a program bug).
func (g *Group) Pos(r int) int {
	p, ok := g.pos[r]
	if !ok {
		panic(fmt.Sprintf("collective: rank %d is not in group", r))
	}
	return p
}

// stepStreams computes, for one communication step in which member
// position i sends to member position sendTo[i] (-1 when idle), the
// number of concurrent streams each sender's node drives on the contended
// resource: its NIC for inter-node sends, its memory system for
// intra-node sends. Receivers congest their node's NIC too, so inter-node
// stream counts include inbound transfers. The result is indexed by
// member position; idle members get 0.
func (g *Group) stepStreams(sendTo []int) []int {
	inter, intra := make([]int, g.maxNode+1), make([]int, g.maxNode+1)
	for i, dst := range sendTo {
		switch {
		case dst < 0:
		case g.node[i] == g.node[dst]:
			intra[g.node[i]]++
		default:
			inter[g.node[i]]++
			inter[g.node[dst]]++
		}
	}
	out := make([]int, len(sendTo))
	for i, dst := range sendTo {
		switch {
		case dst < 0:
		case g.node[i] == g.node[dst]:
			out[i] = intra[g.node[i]]
		default:
			out[i] = max(inter[g.node[i]], inter[g.node[dst]])
		}
	}
	return out
}

// streamTable returns the stream counts (stepStreams) of every round of
// the topology in slot: the ring (i -> i+1, every round alike),
// recursive doubling (i <-> i XOR 2^k), Bruck (i -> i-2^k), or the
// binomial gather or broadcast from position 0. It is built once per
// group, by whichever member needs it first; members racing to build it
// build identical tables, and either is kept.
func (g *Group) streamTable(slot int) [][]int {
	if t := g.tables[slot].Load(); t != nil {
		return *t
	}
	n := len(g.ranks)
	bcast := slot == tabBcast
	t := make([][]int, max(bits.Len(uint(n-1)), 1))
	sendTo := make([]int, n)
	for k := range t {
		d := 1 << k
		if bcast { // rounds from the top bit down
			d = 1 << (len(t) - 1 - k)
		}
		for i := range sendTo {
			switch {
			case slot < tabGather: // the schedules' shapes (Group.step)
				sendTo[i], _ = mpi.Peers(i, n, [3]int{1, d, n - d}[slot], slot == tabXor)
			case bcast && i%(2*d) == 0 && i+d < n:
				sendTo[i] = i + d
			case !bcast && i&d != 0 && i&(d-1) == 0:
				sendTo[i] = i - d
			default:
				sendTo[i] = -1
			}
		}
		t[k] = g.stepStreams(sendTo)
	}
	g.tables[slot].Store(&t)
	return t
}

// runBytes is the raw size of a run, the message of a multi-segment step
// (recursive doubling, Bruck, binomial gather): the count segments at
// consecutive group positions from first, cyclically.
func (g *Group) runBytes(l Layout, first, count int) int64 {
	var words int64
	for j := 0; j < count; j++ {
		words += l.Counts[(first+j)%g.Size()]
	}
	return words * 8
}

// landRun copies the segments of a received run into buf, after
// checking that it is the run the step expects.
func (g *Group) landRun(buf []uint64, l Layout, in *mpi.Payload, first, count int) {
	if in.ID != first || in.Q != count {
		panic(fmt.Sprintf("collective: expected the %d segments from position %d, got %d from %d", count, first, in.Q, in.ID))
	}
	for j := 0; j < count; j++ {
		id := (first + j) % g.Size()
		copy(l.seg(buf, id), l.seg(in.Words, id))
	}
}

// Layout describes an allgatherv buffer: counts[i] words contributed by
// member i, placed at displs[i] words in the destination buffer.
type Layout struct {
	Counts []int64
	Displs []int64
}

// EvenLayout splits `words` words over n members as evenly as possible
// (first words%n members get one extra word).
func EvenLayout(words int64, n int) Layout {
	offs := make([]int64, n+1)
	for i := range n {
		offs[i+1] = offs[i] + words/int64(n) + int64(b2i(int64(i) < words%int64(n)))
	}
	return SegLayout(offs)
}

// SegLayout builds a layout from explicit per-member word offsets:
// member i owns [offs[i], offs[i+1]).
func SegLayout(offs []int64) Layout {
	l := Layout{Counts: make([]int64, len(offs)-1), Displs: make([]int64, len(offs)-1)}
	for i := range l.Counts {
		l.Displs[i], l.Counts[i] = offs[i], offs[i+1]-offs[i]
	}
	return l
}

// TotalWords returns the total words the layout describes.
func (l Layout) TotalWords() int64 {
	var t int64
	for _, c := range l.Counts {
		t += c
	}
	return t
}

// seg returns member i's segment of buf.
func (l Layout) seg(buf []uint64, i int) []uint64 {
	return buf[l.Displs[i] : l.Displs[i]+l.Counts[i]]
}
