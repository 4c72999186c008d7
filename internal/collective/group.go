// Package collective implements the MPI collective algorithms the paper
// uses, measures and optimizes, each a schedule (shift.go) whose cost
// emerges from its messages — sent under crashes or lossy links, else
// replayed at the group's gate:
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

	tables [tagEnd >> 12]atomic.Pointer[[][]int] // by schedule (streamTable)
	// The schedules' gate and, per member, arguments, codec prices,
	// allreduce accumulators, the chunks a ring holds to forward as
	// messages, a pipelined walk's clocks at a step's waits and stream
	// counts; the replay's result job and its op (shift.go).
	gate    *mpi.Gate
	posted  []shiftArgs
	priced  [][]wire.Price
	acc     [][]int64
	held    [][]mpi.Payload
	ready   []float64
	streams []int
	result  *mpi.Share
	op      int

	// The walk's message sizes, wire then raw (Group.size): an
	// alltoallv's row s, [s*n, s*n+n), is every member's send of step s,
	// written by its sender before the gate; otherwise [q*n+k] is item
	// k's chunk q, written once per walk, and a step's sizes are gathered
	// by sender into sent.
	sizes, sent [2][]int64
}

// NewGroup builds a group over the given ranks (in order).
func NewGroup(w *mpi.World, ranks []int) *Group {
	g := &Group{
		ranks: append([]int(nil), ranks...),
		pos:   make(map[int]int, len(ranks)),
		node:  make([]int, len(ranks)),
		gate:  w.NewGate(ranks), posted: make([]shiftArgs, len(ranks)),
		priced: make([][]wire.Price, len(ranks)), acc: make([][]int64, len(ranks)),
		held: make([][]mpi.Payload, len(ranks)), ready: make([]float64, len(ranks)), streams: make([]int, len(ranks)),
	}
	for i := range g.sizes {
		g.sizes[i], g.sent[i] = make([]int64, len(ranks)*len(ranks)), make([]int64, len(ranks))
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

// stepStreams computes, for one communication step in which each live
// sender of sh sends to its peer, the number of concurrent streams each
// sender's node drives on the contended resource: its NIC for inter-node
// sends, its memory system for intra-node sends. Receivers congest their
// node's NIC too, so inter-node stream counts include inbound transfers.
// The result is indexed by member position; idle members get 0.
func (g *Group) stepStreams(sh *mpi.Shift) []int {
	n := len(g.ranks)
	inter, intra := make([]int, g.maxNode+1), make([]int, g.maxNode+1)
	for i := sh.From; i < sh.Below; i += sh.Every {
		switch dst, _ := sh.Peers(i, n); {
		case g.node[i] == g.node[dst]:
			intra[g.node[i]]++
		default:
			inter[g.node[i]]++
			inter[g.node[dst]]++
		}
	}
	out := make([]int, n)
	for i := sh.From; i < sh.Below; i += sh.Every {
		switch dst, _ := sh.Peers(i, n); {
		case g.node[i] == g.node[dst]:
			out[i] = intra[g.node[i]]
		default:
			out[i] = max(inter[g.node[i]], inter[g.node[dst]])
		}
	}
	return out
}

// streamTable returns the stream counts (stepStreams) of every round of
// schedule op (Group.shape): the ring's (i -> i+1, every round alike),
// recursive doubling's, Bruck's, or the binomial gather's or
// broadcast's, whose idle members send nothing. It is built once per
// group, by whichever member needs it first; members racing to build it
// build identical tables, and either is kept.
func (g *Group) streamTable(op int) [][]int {
	slot := &g.tables[op>>12]
	if t := slot.Load(); t != nil {
		return *t
	}
	t := make([][]int, max(bits.Len(uint(len(g.ranks)-1)), 1))
	for s := range t {
		var sh step
		g.shape(&sh, op, s)
		t[s] = g.stepStreams(&sh.Shift)
	}
	slot.Store(&t)
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
