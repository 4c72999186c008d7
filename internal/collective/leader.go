package collective

import (
	"fmt"

	"numabfs/internal/mpi"
	"numabfs/internal/wire"
)

// NodeComm holds the group structure the paper's node-aware allgather
// variants need: per-node groups (leader = the node's first member), the
// leader group, and per-member-index subgroups for the parallelized
// allgather. Membership is explicit — a NodeComm can be built over any
// subset of the world's ranks (actives with spares parked, a promoted
// spare in a dead rank's place), and over the full world it reproduces
// the historical arithmetic shapes exactly: leader n*ppn, children in
// ascending order, subgroup j = the ranks with local index j.
type NodeComm struct {
	World   *Group   // the member ranks, in member order
	Nodes   []*Group // per physical node: its members (nil when none)
	Leaders *Group   // one leader per populated node, ascending node order
	Subs    []*Group // subgroup j: each node's j-th member (see subRange)
	PPN     int      // largest member population on any node

	members   [][]int // per node: member ranks in member order
	leaderOf  []int   // per node: leader rank, -1 when unpopulated
	idxOnNode []int   // per rank: index in its node's member list, -1 outside
	nodeFirst []int   // per node: World position of its first member, -1
	nodePos   []int   // per node: position in Leaders, -1 when unpopulated
}

// NewNodeComm builds the node communicator over all ranks of world w.
func NewNodeComm(w *mpi.World) *NodeComm {
	return NewNodeCommRanks(w, WorldGroup(w).Ranks())
}

// NewNodeCommRanks builds the node communicator over an explicit member
// list (in group order). Each node's members must be contiguous in the
// list so that a node's buffer segments concatenate — true for the block
// rank placement, and preserved by a spare promotion, which puts a
// same-node spare in the dead rank's place.
func NewNodeCommRanks(w *mpi.World, ranks []int) *NodeComm {
	nodes := w.Config().Nodes
	np := w.NumProcs()
	nc := &NodeComm{
		World:     NewGroup(w, ranks),
		members:   make([][]int, nodes),
		leaderOf:  make([]int, nodes),
		idxOnNode: make([]int, np),
		nodeFirst: make([]int, nodes),
		nodePos:   make([]int, nodes),
	}
	for r := range nc.idxOnNode {
		nc.idxOnNode[r] = -1
	}
	for n := 0; n < nodes; n++ {
		nc.leaderOf[n], nc.nodeFirst[n], nc.nodePos[n] = -1, -1, -1
	}
	for pos, r := range ranks {
		n := w.Proc(r).Node()
		if nc.nodeFirst[n] == -1 {
			nc.nodeFirst[n] = pos
		}
		if nc.nodeFirst[n]+len(nc.members[n]) != pos {
			panic(fmt.Sprintf("collective: node %d's members are not contiguous in the member list", n))
		}
		nc.idxOnNode[r] = len(nc.members[n])
		nc.members[n] = append(nc.members[n], r)
	}
	nc.Nodes = make([]*Group, nodes)
	var leaders []int
	for n := 0; n < nodes; n++ {
		if len(nc.members[n]) == 0 {
			continue
		}
		nc.Nodes[n] = NewGroup(w, nc.members[n])
		nc.leaderOf[n] = nc.members[n][0]
		nc.nodePos[n] = len(leaders)
		leaders = append(leaders, nc.members[n][0])
		if len(nc.members[n]) > nc.PPN {
			nc.PPN = len(nc.members[n])
		}
	}
	nc.Leaders = NewGroup(w, leaders)
	// Subgroup j holds each node's j-th member; a node with fewer than
	// j+1 members is covered by its last member standing in (it carries
	// the leftover subs sequentially, contributing zero words — see
	// subLayout — so shorter nodes still receive every segment).
	nc.Subs = make([]*Group, nc.PPN)
	for j := 0; j < nc.PPN; j++ {
		var rs []int
		for n := 0; n < nodes; n++ {
			if cnt := len(nc.members[n]); cnt > 0 {
				if j < cnt {
					rs = append(rs, nc.members[n][j])
				} else {
					rs = append(rs, nc.members[n][cnt-1])
				}
			}
		}
		nc.Subs[j] = NewGroup(w, rs)
	}
	return nc
}

// IsLeader reports whether p is its node's leader.
func (nc *NodeComm) IsLeader(p *mpi.Proc) bool { return nc.leaderOf[p.Node()] == p.Rank() }

// subRange returns the subgroup indices rank p drives: its own member
// index, plus — when it is its node's last member — every leftover sub it
// stands in for. The rings run sequentially in ascending index; every
// member orders them the same way, so the pipeline of rendezvous
// slots can never deadlock across rings.
func (nc *NodeComm) subRange(p *mpi.Proc) (lo, hi int) {
	i := nc.idxOnNode[p.Rank()]
	if i == len(nc.members[p.Node()])-1 {
		return i, nc.PPN - 1
	}
	return i, i
}

// nodeStreams returns the concurrent subgroup stream count p's node
// drives — its member population (PPN at full membership).
func (nc *NodeComm) nodeStreams(p *mpi.Proc) int { return len(nc.members[p.Node()]) }

// nodeLayout aggregates a per-member layout into a per-populated-node
// layout (indexed by Leaders position) for the leader allgather: node n
// contributes the concatenation of its members' segments (contiguous by
// the member-list invariant).
func (nc *NodeComm) nodeLayout(l Layout) Layout {
	populated := nc.Leaders.Size()
	counts := make([]int64, populated)
	displs := make([]int64, populated)
	for n := range nc.members {
		pos := nc.nodePos[n]
		if pos < 0 {
			continue
		}
		first := nc.nodeFirst[n]
		displs[pos] = l.Displs[first]
		for j := range nc.members[n] {
			counts[pos] += l.Counts[first+j]
		}
	}
	return Layout{Counts: counts, Displs: displs}
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
		x.Overlap.reset()
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
		node.GatherBinomial(p, dst, nc.localView(l, p.Node()), 0)
		st.GatherNs = p.Clock() - tc
		if leader {
			t0 := p.Clock()
			nc.Leaders.exchangeRing(p, dst, nc.nodeLayout(l), x)
			st.InterNs = p.Clock() - t0
		}
		t0 := p.Clock()
		node.BcastBinomial(p, dst, l.TotalWords(), 0)
		st.BcastNs = p.Clock() - t0

	case SchemeSharedIn, SchemeSharedAll:
		var nl Layout
		if leader {
			nl = nc.nodeLayout(l)
		}
		mine := nc.members[p.Node()]
		switch {
		case src == nil:
			node.barrierVia(p)
		case s == SchemeSharedAll:
			if leader {
				stage(p, dst, src, nl, nc.nodePos[p.Node()])
			}
		case leader:
			stage(p, dst, src, l, me)
			for _, child := range mine[1:] {
				m := p.Recv(child, tagGather)
				copy(l.seg(dst, nc.World.Pos(child)), m.Payload.Words)
			}
		default:
			// Children copy concurrently; the leader serializes receives.
			seg := l.seg(src, me)
			p.SendPayload(nc.leaderOf[p.Node()], tagGather, int64(len(seg))*8, mpi.Payload{Words: seg}, len(mine)-1)
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
		lo, hi := nc.subRange(p)
		for j := lo; j <= hi; j++ {
			x.ring(p, nc.Subs[j], dst, nc.subLayout(nc.Subs[j], l, j), nc.nodeStreams(p))
		}
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

// localView returns the layout of node n's members as a group-local
// layout (positions 0..cnt-1), still addressing the full buffer.
func (nc *NodeComm) localView(l Layout, n int) Layout {
	first := nc.nodeFirst[n]
	cnt := len(nc.members[n])
	return Layout{
		Counts: l.Counts[first : first+cnt],
		Displs: l.Displs[first : first+cnt],
	}
}

// subLayout returns the layout of subgroup j's members' segments within
// the full buffer. A stand-in member (a short node's last member covering
// a leftover sub, idxOnNode != j) contributes zero words: its real
// segment travels in its own sub, so carrying it again would double-write
// receivers' shared buffers.
func (nc *NodeComm) subLayout(sub *Group, l Layout, j int) Layout {
	counts := make([]int64, sub.Size())
	displs := make([]int64, sub.Size())
	for i, r := range sub.Ranks() {
		wp := nc.World.Pos(r)
		displs[i] = l.Displs[wp]
		if nc.idxOnNode[r] == j {
			counts[i] = l.Counts[wp]
		}
	}
	return Layout{Counts: counts, Displs: displs}
}

// barrierVia runs a node barrier through the proc (helper so group code
// can synchronize a node's ranks).
func (g *Group) barrierVia(p *mpi.Proc) {
	if g.Size() == 1 {
		return
	}
	p.NodeBarrier()
}
