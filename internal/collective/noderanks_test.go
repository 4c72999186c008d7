package collective

// Tests for member-explicit NodeComm construction: over the full world
// it must reproduce the historical shapes exactly, and over uneven
// survivor populations every allgather variant must still deliver every
// segment (the stand-in scheme covering leftover subgroups).

import (
	"reflect"
	"testing"

	"numabfs/internal/mpi"
)

func TestNodeCommRanksFullWorldMatchesNodeComm(t *testing.T) {
	w := testWorld(t, 3, 4)
	a, b := NewNodeComm(w), NewNodeCommRanks(w, []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11})
	if a.PPN != b.PPN {
		t.Fatalf("PPN %d vs %d", a.PPN, b.PPN)
	}
	if !reflect.DeepEqual(a.World.Ranks(), b.World.Ranks()) {
		t.Fatalf("world ranks %v vs %v", a.World.Ranks(), b.World.Ranks())
	}
	if !reflect.DeepEqual(a.Leaders.Ranks(), b.Leaders.Ranks()) {
		t.Fatalf("leaders %v vs %v", a.Leaders.Ranks(), b.Leaders.Ranks())
	}
	for j := range a.Subs {
		if !reflect.DeepEqual(a.Subs[j].Ranks(), b.Subs[j].Ranks()) {
			t.Fatalf("sub %d: %v vs %v", j, a.Subs[j].Ranks(), b.Subs[j].Ranks())
		}
	}
	for n := range a.Nodes {
		if !reflect.DeepEqual(a.Nodes[n].Ranks(), b.Nodes[n].Ranks()) {
			t.Fatalf("node %d: %v vs %v", n, a.Nodes[n].Ranks(), b.Nodes[n].Ranks())
		}
	}
}

func TestNodeCommRanksRejectsScatteredNode(t *testing.T) {
	w := testWorld(t, 2, 4)
	defer func() {
		if recover() == nil {
			t.Fatal("non-contiguous node membership did not panic")
		}
	}()
	// Rank 4 (node 1) splits node 0's block.
	NewNodeCommRanks(w, []int{0, 1, 4, 2})
}

// runUneven runs body on every member of a 2x4 world whose non-members
// are parked.
func runUneven(t *testing.T, members []int, body func(nc *NodeComm, p *mpi.Proc, pos int)) {
	t.Helper()
	e := newAgEnv(t, agGeo{nodes: 2, ppn: 4, members: members, words: int64(len(members))})
	e.w.Run(func(p *mpi.Proc) {
		body(e.nc, p, e.g.Pos(p.Rank()))
	})
}

// TestNodeCommRanksUnevenNodesComplete: a shrunken membership where the
// nodes carry different populations (3 vs 2 here) must still deliver
// every member's segment through each allgather variant — the short
// node's last member stands in for the missing subgroups.
func TestNodeCommRanksUnevenNodesComplete(t *testing.T) {
	members := []int{0, 1, 2, 4, 5}
	const words = 335
	l := EvenLayout(words, len(members))

	t.Run("leader", func(t *testing.T) {
		runUneven(t, members, func(nc *NodeComm, p *mpi.Proc, pos int) {
			buf := make([]uint64, words)
			fillOwn(buf, l, pos)
			nc.Allgather(p, SchemeLeader, buf, nil, l, Exchange{})
			checkFull(t, "leader-uneven", p.Rank(), buf, l)
		})
	})
	t.Run("leader-pipelined", func(t *testing.T) {
		runUneven(t, members, func(nc *NodeComm, p *mpi.Proc, pos int) {
			buf := make([]uint64, words)
			fillOwn(buf, l, pos)
			nc.LeaderAllgatherPipelined(p, buf, l)
			checkFull(t, "pipelined-uneven", p.Rank(), buf, l)
		})
	})
	t.Run("shared-inq", func(t *testing.T) {
		runUneven(t, members, func(nc *NodeComm, p *mpi.Proc, pos int) {
			shared := p.SharedWords("inq", words)
			src := make([]uint64, words)
			fillOwn(src, l, pos)
			nc.Allgather(p, SchemeSharedIn, shared, src, l, Exchange{})
			checkFull(t, "shared-inq-uneven", p.Rank(), shared, l)
		})
	})
	t.Run("parallel", func(t *testing.T) {
		runUneven(t, members, func(nc *NodeComm, p *mpi.Proc, pos int) {
			shared := p.SharedWords("inq", words)
			src := make([]uint64, words)
			fillOwn(src, l, pos)
			nc.Allgather(p, SchemeParallel, shared, src, l, Exchange{})
			checkFull(t, "parallel-uneven", p.Rank(), shared, l)
		})
	})
}

// TestNodeCommRanksSingleNodeSurvives: every member on one node — the
// leader group is size 1 and the inter step degenerates to zero work.
func TestNodeCommRanksSingleNodeSurvives(t *testing.T) {
	members := []int{0, 1, 2, 3}
	const words = 128
	l := EvenLayout(words, len(members))
	runUneven(t, members, func(nc *NodeComm, p *mpi.Proc, pos int) {
		buf := make([]uint64, words)
		fillOwn(buf, l, pos)
		st := nc.Allgather(p, SchemeLeader, buf, nil, l, Exchange{})
		checkFull(t, "single-node", p.Rank(), buf, l)
		if st.InterNs != 0 {
			t.Errorf("rank %d charged inter time %g with one populated node", p.Rank(), st.InterNs)
		}
	})
}
