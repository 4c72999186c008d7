package collective

import (
	"fmt"
	"slices"
	"sync/atomic"

	"numabfs/internal/mpi"
	"numabfs/internal/wire"
)

// NodeComm holds the group structure the paper's node-aware allgather
// variants need: per-node groups (leader = the node's first member), the
// leader group, and per-member-index subgroups for the parallelized
// allgather. Membership is explicit — a NodeComm can be built over the
// active members with spares parked, or with a promoted spare in a dead
// rank's place — and over the full world it reproduces the historical
// arithmetic shapes exactly: leader n*ppn, children in ascending order,
// subgroup j = the ranks with local index j.
type NodeComm struct {
	World   *Group   // the member ranks, in member order
	Nodes   []*Group // per physical node: its members
	Leaders *Group   // one leader per node, in member order
	Subs    []*Group // subgroup j: each node's j-th member
	PPN     int      // members per node

	cache atomic.Pointer[[]*views] // derived layouts, newest first (views)
}

// NewNodeComm builds the node communicator over all ranks of world w.
func NewNodeComm(w *mpi.World) *NodeComm {
	return NewNodeCommRanks(w, WorldGroup(w).Ranks())
}

// NewNodeCommRanks builds the node communicator over an explicit member
// list (in group order). Every node must hold the same number (at least
// one) of members, contiguous in the list, so that a node's buffer
// segments concatenate and every node drives PPN subgroup rings — the
// only shape the paper's Eq. (2) prices. The block rank placement with
// the same spares parked on every node has it, and a spare promotion
// keeps it by putting a same-node spare in the dead rank's place. Any
// other list is a program bug and panics.
func NewNodeCommRanks(w *mpi.World, ranks []int) *NodeComm {
	nodes := w.Config().Nodes
	ppn := len(ranks) / nodes
	if ppn == 0 || ppn*nodes != len(ranks) {
		panic(fmt.Sprintf("collective: %d members do not populate %d nodes evenly", len(ranks), nodes))
	}
	nc := &NodeComm{World: NewGroup(w, ranks), Nodes: make([]*Group, nodes), PPN: ppn}
	leaders := make([]int, 0, nodes)
	for b := 0; b < len(ranks); b += ppn {
		block := ranks[b : b+ppn]
		n := w.Proc(block[0]).Node()
		if nc.Nodes[n] != nil || slices.ContainsFunc(block, func(r int) bool { return w.Proc(r).Node() != n }) {
			panic(fmt.Sprintf("collective: node %d's members are not %d contiguous entries of the member list", n, ppn))
		}
		nc.Nodes[n] = NewGroup(w, block)
		leaders = append(leaders, block[0])
	}
	nc.Leaders = NewGroup(w, leaders)
	nc.cache.Store(new([]*views))
	nc.Subs = make([]*Group, ppn)
	sub := make([]int, nodes)
	for j := range nc.Subs {
		for k := range sub {
			sub[k] = ranks[k*ppn+j]
		}
		nc.Subs[j] = NewGroup(w, sub)
	}
	return nc
}

// IsLeader reports whether p is its node's leader.
func (nc *NodeComm) IsLeader(p *mpi.Proc) bool { return nc.leaderOf(p) == p.Rank() }

// leaderOf returns the leader of p's node.
func (nc *NodeComm) leaderOf(p *mpi.Proc) int { return nc.Nodes[p.Node()].Ranks()[0] }

// views returns the layouts the node-aware schemes derive from l: the
// per-node one indexed by Leaders position, a node contributing its
// members' contiguous segments, and subgroup j's, every node's j-th
// member. They are built once per source layout, which callers pass
// unmodified level after level; the most recent four are kept.
func (nc *NodeComm) views(l Layout) *views {
	cached := *nc.cache.Load()
	for _, v := range cached {
		if &v.src.Counts[0] == &l.Counts[0] && &v.src.Displs[0] == &l.Displs[0] {
			return v
		}
	}
	nodes := nc.Leaders.Size()
	v := &views{src: l, node: Layout{make([]int64, nodes), make([]int64, nodes)}, subs: make([]Layout, nc.PPN)}
	for j := range v.subs {
		v.subs[j] = Layout{make([]int64, nodes), make([]int64, nodes)}
	}
	for k := range nodes {
		v.node.Displs[k] = l.Displs[k*nc.PPN]
		for j, sub := range v.subs {
			i := k*nc.PPN + j
			v.node.Counts[k] += l.Counts[i]
			sub.Counts[k], sub.Displs[k] = l.Counts[i], l.Displs[i]
		}
	}
	next := append([]*views{v}, cached[:min(len(cached), 3)]...)
	nc.cache.Store(&next)
	return v
}

type views struct {
	src, node Layout
	subs      []Layout
}

// StepTimes is the per-rank time spent in each step of a leader-based
// allgather — the breakdown of Fig. 6.
type StepTimes struct {
	GatherNs float64 // step 1: children -> leader (intra-node)
	InterNs  float64 // step 2: allgather between leaders (inter-node)
	BcastNs  float64 // step 3: leader -> children (intra-node)
}

// Total returns the summed step time.
func (t StepTimes) Total() float64 { return t.GatherNs + t.InterNs + t.BcastNs }

// Scheme is a rung of the paper's allgather ladder: which ranks move the
// data between nodes, and which intra-node steps sharing has removed.
type Scheme int

const (
	// SchemeLibrary is the MPI library's default allgather over all
	// members, blind to node boundaries (Group.Allgather; the ring under
	// a codec or the pipelined schedule, which only the ring has).
	SchemeLibrary Scheme = iota
	// SchemeLeader is the prior-work baseline of Fig. 5a (Mamidala et
	// al.): binomial gather of each node's segments to its leader, ring
	// between leaders, binomial broadcast of the full buffer back. The
	// intra-node steps stay raw under a codec: they move through shared
	// memory, where the bandwidth gap compression exploits does not exist.
	SchemeLeader
	// SchemeSharedIn is the paper's first optimization (Fig. 5b with only
	// in_queue shared): dst is one node-shared buffer; children still
	// send their segments to the leader, which assembles them in dst,
	// but the broadcast disappears — children see the result through the
	// shared mapping after a node barrier.
	SchemeSharedIn
	// SchemeSharedAll is "Share all" (Fig. 5b): the source is node-shared
	// too, so the leader copies the node's whole slice itself — no
	// gather, no broadcast.
	SchemeSharedAll
	// SchemeParallel is Section III.B (Fig. 7): each node's j-th members
	// form subgroup j; every subgroup ring-allgathers its members'
	// segments into the node-shared dst, all subgroups concurrently, so
	// every NIC carries PPN streams. Total traffic is m*(np/ppn - 1) —
	// Eq. (2).
	SchemeParallel
)

// stage copies segment i of src into place in dst at shared-copy
// bandwidth.
func stage(p *mpi.Proc, dst, src []uint64, l Layout, i int) {
	copy(l.seg(dst, i), l.seg(src, i))
	p.Compute(float64(l.Counts[i]*8) / p.World().Config().ShmCopyBW)
}

// gatherToLeader is the shared in_queue gather: the leader stages its
// own segment of src in dst, then gathers the children's there (over
// n-1 streams, GatherLinear).
func (nc *NodeComm) gatherToLeader(p *mpi.Proc, dst, src []uint64, l Layout) {
	node, me := nc.Nodes[p.Node()], nc.World.Pos(p.Rank())
	if nc.IsLeader(p) {
		stage(p, dst, src, l, me)
		src = dst
	}
	node.GatherLinear(p, src, nc.localView(l, me-me%nc.PPN), node.Size()-1)
}

// Allgather is the node-aware allgatherv over the communicator's members
// under scheme s and send path x: on return every member's view of dst
// holds all segments of layout l (indexed by World position). src is the
// full-length buffer holding the contributions at their layout positions
// — each rank's own segment, or under SchemeSharedAll one node-shared
// buffer with the whole node's slice; nil means they are already in
// place in dst. Staged, the schemes stage as the paper's variants do; in
// place, the shared schemes wait at a node barrier for the node's
// writers instead (both then run the same steps). dst is a private
// buffer under the library and leader schemes, node-shared otherwise.
func (nc *NodeComm) Allgather(p *mpi.Proc, s Scheme, dst, src []uint64, l Layout, x Exchange) StepTimes {
	var st StepTimes
	node := nc.Nodes[p.Node()]
	me := nc.World.Pos(p.Rank())
	leader := nc.IsLeader(p)
	tc := p.Clock()
	if x.Chunks > 0 {
		*x.Overlap = Overlap{}
	}

	switch s {
	case SchemeLibrary:
		if src != nil {
			stage(p, dst, src, l, me)
		}
		if x.Codec == nil && x.Chunks == 0 {
			nc.World.Allgather(p, dst, l)
		} else {
			nc.World.exchangeRing(p, dst, l, x)
		}
		return st

	case SchemeLeader:
		if src != nil {
			stage(p, dst, src, l, me)
		}
		node.GatherBinomial(p, dst, nc.localView(l, me-me%nc.PPN))
		st.GatherNs = p.Clock() - tc
		if leader {
			t0 := p.Clock()
			nc.Leaders.exchangeRing(p, dst, nc.views(l).node, x)
			st.InterNs = p.Clock() - t0
		}
		t0 := p.Clock()
		node.BcastBinomial(p, dst, l.TotalWords())
		st.BcastNs = p.Clock() - t0

	case SchemeSharedIn, SchemeSharedAll:
		var nl Layout
		if leader {
			nl = nc.views(l).node
		}
		switch {
		case src == nil:
			node.barrierVia(p)
		case s == SchemeSharedAll:
			if leader {
				stage(p, dst, src, nl, me/nc.PPN)
			}
		default:
			nc.gatherToLeader(p, dst, src, l)
		}
		if src != nil {
			st.GatherNs = p.Clock() - tc
		}
		if leader {
			// Own-node data is in dst already; remote arrivals land there
			// as the ring progresses.
			t0 := p.Clock()
			nc.Leaders.exchangeRing(p, dst, nl, x)
			st.InterNs = p.Clock() - t0
		}
		// No broadcast: a node barrier makes the shared result visible
		// (children wait for the leader here).
		t0 := p.Clock()
		node.barrierVia(p)
		st.InterNs += p.Clock() - t0
		if src == nil {
			st.InterNs = p.Clock() - tc // the writers' barrier included
		}

	case SchemeParallel:
		if src != nil {
			stage(p, dst, src, l, me)
		}
		j := me % nc.PPN
		nc.Subs[j].allgatherRing(p, dst, nc.views(l).subs[j], nc.PPN, x)
		st.InterNs = p.Clock() - tc
		t0 := p.Clock()
		node.barrierVia(p)
		st.InterNs += p.Clock() - t0
	}
	p.Obs().Collective(labels[s][x.variant(src == nil)], tc, p.Clock())
	return st
}

// ParallelAllgatherInPlace is the raw in-place parallel allgather, by
// the name the repository benchmark's probes call it.
func (nc *NodeComm) ParallelAllgatherInPlace(p *mpi.Proc, shared []uint64, l Layout) StepTimes {
	return nc.Allgather(p, SchemeParallel, shared, nil, l, Exchange{})
}

// ParallelAllgatherInPlaceCompressed is the same under a codec.
func (nc *NodeComm) ParallelAllgatherInPlaceCompressed(p *mpi.Proc, shared []uint64, l Layout, c *wire.Codec) StepTimes {
	return nc.Allgather(p, SchemeParallel, shared, nil, l, Exchange{Codec: c})
}

// localView returns the layout of the node whose first member sits at
// World position first as a group-local layout (positions 0..PPN-1),
// still addressing the full buffer.
func (nc *NodeComm) localView(l Layout, first int) Layout {
	return Layout{
		Counts: l.Counts[first : first+nc.PPN],
		Displs: l.Displs[first : first+nc.PPN],
	}
}

// barrierVia runs a node barrier through the proc (helper so group code
// can synchronize a node's ranks).
func (g *Group) barrierVia(p *mpi.Proc) {
	if g.Size() == 1 {
		return
	}
	p.NodeBarrier()
}
