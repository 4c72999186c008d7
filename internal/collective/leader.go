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
// subset of the world's ranks (survivors after a shrink, actives with
// spares parked), and over the full world it reproduces the historical
// arithmetic shapes exactly: leader n*ppn, children in ascending order,
// subgroup j = the ranks with local index j.
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
	ranks := make([]int, w.NumProcs())
	for i := range ranks {
		ranks[i] = i
	}
	return NewNodeCommRanks(w, ranks)
}

// NewNodeCommRanks builds the node communicator over an explicit member
// list (in group order). Each node's members must be contiguous in the
// list so that a node's buffer segments concatenate — true for the block
// rank placement, and preserved by survivor repartitioning.
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

func (t *StepTimes) add(o StepTimes) {
	t.GatherNs += o.GatherNs
	t.InterNs += o.InterNs
	t.BcastNs += o.BcastNs
}

// LeaderAllgather is the prior-work baseline of Fig. 5a (Mamidala et
// al.): gather each node's segments to its leader, ring-allgather between
// leaders, broadcast the full buffer back to the children. buf is each
// rank's private full-size buffer with its own segment (layout l, indexed
// by world group position) already in place.
func (nc *NodeComm) LeaderAllgather(p *mpi.Proc, buf []uint64, l Layout) StepTimes {
	var st StepTimes
	node := nc.Nodes[p.Node()]
	tc := p.Clock()

	t0 := p.Clock()
	node.GatherBinomial(p, buf, nc.localView(l, p.Node()), 0)
	st.GatherNs = p.Clock() - t0

	if nc.IsLeader(p) {
		t0 = p.Clock()
		nc.Leaders.AllgatherRing(p, buf, nc.nodeLayout(l))
		st.InterNs = p.Clock() - t0
	}

	t0 = p.Clock()
	node.BcastBinomial(p, buf, l.TotalWords(), 0)
	st.BcastNs = p.Clock() - t0
	p.Obs().Collective("leader-allgather", tc, p.Clock())
	return st
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

// SharedInQueueAllgather is the paper's first optimization (Fig. 5b with
// only in_queue shared): buf is one node-shared buffer; children still
// gather their segments to the leader (step 1), leaders allgather on the
// shared buffer (step 2), and the broadcast disappears — children see the
// result through the shared mapping after a node barrier.
func (nc *NodeComm) SharedInQueueAllgather(p *mpi.Proc, shared []uint64, seg []uint64, l Layout) StepTimes {
	var st StepTimes
	node := nc.Nodes[p.Node()]
	me := nc.World.Pos(p.Rank())
	tc := p.Clock()

	// Step 1: children send their segment to the leader, which writes it
	// into the shared buffer. The leader's own segment is copied by its
	// compute phase already (seg aliases shared for the leader when the
	// caller stages directly; otherwise copy here).
	t0 := p.Clock()
	mine := nc.members[p.Node()]
	if nc.IsLeader(p) {
		copy(l.seg(shared, me), seg)
		p.Compute(float64(len(seg)*8) / p.World().Config().ShmCopyBW)
		for _, child := range mine[1:] {
			m := p.Recv(child, tagGather)
			copy(l.seg(shared, nc.World.Pos(child)), m.Payload.Words)
		}
	} else {
		// Children copy concurrently; the leader serializes receives.
		p.SendPayload(nc.leaderOf[p.Node()], tagGather, int64(len(seg))*8, mpi.Payload{Words: seg}, len(mine)-1)
	}
	st.GatherNs = p.Clock() - t0

	if nc.IsLeader(p) {
		t0 = p.Clock()
		nc.Leaders.AllgatherRing(p, shared, nc.nodeLayout(l))
		st.InterNs = p.Clock() - t0
	}

	// No step 3: a node barrier makes the shared result visible.
	t0 = p.Clock()
	node.barrierVia(p)
	st.BcastNs = 0
	st.InterNs += p.Clock() - t0 // children wait for the leader here
	p.Obs().Collective("shared-inq-allgather", tc, p.Clock())
	return st
}

// SharedAllAgather is the paper's "Share all" variant (Fig. 5b): both
// out_queue and in_queue are node-shared, so the leader reads children's
// segments directly from the shared out region — no gather, no broadcast.
// sharedOut holds the node's contribution at the node's displacement;
// sharedIn receives the full result.
func (nc *NodeComm) SharedAllAgather(p *mpi.Proc, sharedIn, sharedOut []uint64, l Layout) StepTimes {
	var st StepTimes
	node := nc.Nodes[p.Node()]
	nl := nc.nodeLayout(l)
	tc := p.Clock()

	if nc.IsLeader(p) {
		// Copy the node's slice from the shared out region in place; this
		// is a local memory copy, charged at shared-copy bandwidth.
		t0 := p.Clock()
		n := nc.nodePos[p.Node()]
		copy(nl.seg(sharedIn, n), nl.seg(sharedOut, n))
		p.Compute(float64(nl.Counts[n]*8) / p.World().Config().ShmCopyBW)
		st.GatherNs = p.Clock() - t0

		t0 = p.Clock()
		// The ring sources segments straight from the shared regions:
		// own-node data from sharedIn (just staged), remote arrivals land
		// in sharedIn as the ring progresses.
		nc.Leaders.AllgatherRing(p, sharedIn, nl)
		st.InterNs = p.Clock() - t0
	}

	t0 := p.Clock()
	node.barrierVia(p)
	st.InterNs += p.Clock() - t0
	p.Obs().Collective("shared-all-allgather", tc, p.Clock())
	return st
}

// ParallelAllgather is the paper's Section III.B scheme (Fig. 7): each
// node's j-th members across all nodes form subgroup j; each subgroup
// ring-allgathers its members' segments into the node-shared buffer, all
// subgroups concurrently, so every NIC carries PPN streams. Total traffic
// is m*(np/ppn - 1) — Eq. (2). seg is the rank's own segment (copied into
// the shared buffer first).
func (nc *NodeComm) ParallelAllgather(p *mpi.Proc, shared []uint64, seg []uint64, l Layout) StepTimes {
	var st StepTimes
	me := nc.World.Pos(p.Rank())
	node := nc.Nodes[p.Node()]
	tc := p.Clock()

	t0 := p.Clock()
	copy(l.seg(shared, me), seg)
	p.Compute(float64(l.Counts[me]*8) / p.World().Config().ShmCopyBW)

	lo, hi := nc.subRange(p)
	for j := lo; j <= hi; j++ {
		nc.Subs[j].allgatherRingStreams(p, shared, nc.subLayout(nc.Subs[j], l, j), nc.nodeStreams(p))
	}
	st.InterNs = p.Clock() - t0

	t0 = p.Clock()
	node.barrierVia(p)
	st.InterNs += p.Clock() - t0
	p.Obs().Collective("par-allgather", tc, p.Clock())
	return st
}

// SharedInPlaceAllgather allgathers a fully node-shared buffer whose
// per-rank contributions are already written in place (each rank wrote
// its own segment into the shared region): a node barrier waits for the
// writers, the leaders exchange node slices, and a final node barrier
// publishes the result. This is the "Share all" path for the summary
// bitmaps, which every rank rebuilds directly into the shared region.
func (nc *NodeComm) SharedInPlaceAllgather(p *mpi.Proc, shared []uint64, l Layout) StepTimes {
	var st StepTimes
	node := nc.Nodes[p.Node()]
	t0 := p.Clock()
	node.barrierVia(p)
	if nc.IsLeader(p) {
		nc.Leaders.AllgatherRing(p, shared, nc.nodeLayout(l))
	}
	node.barrierVia(p)
	st.InterNs = p.Clock() - t0
	p.Obs().Collective("shared-inplace-allgather", t0, p.Clock())
	return st
}

// ParallelAllgatherInPlace is ParallelAllgather for contributions already
// staged in the shared buffer (no copy step).
func (nc *NodeComm) ParallelAllgatherInPlace(p *mpi.Proc, shared []uint64, l Layout) StepTimes {
	var st StepTimes
	node := nc.Nodes[p.Node()]
	tc := p.Clock()

	t0 := p.Clock()
	lo, hi := nc.subRange(p)
	for j := lo; j <= hi; j++ {
		nc.Subs[j].allgatherRingStreams(p, shared, nc.subLayout(nc.Subs[j], l, j), nc.nodeStreams(p))
	}
	st.InterNs = p.Clock() - t0

	t0 = p.Clock()
	node.barrierVia(p)
	st.InterNs += p.Clock() - t0
	p.Obs().Collective("par-allgather-inplace", tc, p.Clock())
	return st
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

// ParallelAllgatherCompressed is ParallelAllgather with every subgroup
// segment travelling in the codec's adaptive wire formats — the fifth
// optimization level (OptCompressedAllgather), stacking Romera-style
// frontier compression on the paper's parallelized allgather. The
// staging copy and the node barrier are unchanged; only the inter-node
// rings carry encoded payloads.
func (nc *NodeComm) ParallelAllgatherCompressed(p *mpi.Proc, shared []uint64, seg []uint64, l Layout, c *wire.Codec) StepTimes {
	var st StepTimes
	me := nc.World.Pos(p.Rank())
	node := nc.Nodes[p.Node()]
	tc := p.Clock()

	t0 := p.Clock()
	copy(l.seg(shared, me), seg)
	p.Compute(float64(l.Counts[me]*8) / p.World().Config().ShmCopyBW)

	lo, hi := nc.subRange(p)
	for j := lo; j <= hi; j++ {
		nc.Subs[j].allgatherRingStreamsC(p, shared, nc.subLayout(nc.Subs[j], l, j), nc.nodeStreams(p), c)
	}
	st.InterNs = p.Clock() - t0

	t0 = p.Clock()
	node.barrierVia(p)
	st.InterNs += p.Clock() - t0
	p.Obs().Collective("par-allgather-comp", tc, p.Clock())
	return st
}

// ParallelAllgatherInPlaceCompressed is ParallelAllgatherInPlace with
// compressed subgroup rings (contributions already staged in the
// shared buffer).
func (nc *NodeComm) ParallelAllgatherInPlaceCompressed(p *mpi.Proc, shared []uint64, l Layout, c *wire.Codec) StepTimes {
	var st StepTimes
	node := nc.Nodes[p.Node()]
	tc := p.Clock()

	t0 := p.Clock()
	lo, hi := nc.subRange(p)
	for j := lo; j <= hi; j++ {
		nc.Subs[j].allgatherRingStreamsC(p, shared, nc.subLayout(nc.Subs[j], l, j), nc.nodeStreams(p), c)
	}
	st.InterNs = p.Clock() - t0

	t0 = p.Clock()
	node.barrierVia(p)
	st.InterNs += p.Clock() - t0
	p.Obs().Collective("par-allgather-inplace-comp", tc, p.Clock())
	return st
}

// LeaderAllgatherCompressed is LeaderAllgather with the inter-node
// leader ring carrying encoded payloads. The intra-node gather and
// broadcast stay raw: they move through shared memory, where the
// bandwidth gap compression exploits does not exist.
func (nc *NodeComm) LeaderAllgatherCompressed(p *mpi.Proc, buf []uint64, l Layout, c *wire.Codec) StepTimes {
	var st StepTimes
	node := nc.Nodes[p.Node()]
	tc := p.Clock()

	t0 := p.Clock()
	node.GatherBinomial(p, buf, nc.localView(l, p.Node()), 0)
	st.GatherNs = p.Clock() - t0

	if nc.IsLeader(p) {
		t0 = p.Clock()
		nc.Leaders.AllgatherRingCompressed(p, buf, nc.nodeLayout(l), c)
		st.InterNs = p.Clock() - t0
	}

	t0 = p.Clock()
	node.BcastBinomial(p, buf, l.TotalWords(), 0)
	st.BcastNs = p.Clock() - t0
	p.Obs().Collective("leader-allgather-comp", tc, p.Clock())
	return st
}

// barrierVia runs a node barrier through the proc (helper so group code
// can synchronize a node's ranks).
func (g *Group) barrierVia(p *mpi.Proc) {
	if g.Size() == 1 {
		return
	}
	p.NodeBarrier()
}
