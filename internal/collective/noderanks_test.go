package collective

// Tests for member-explicit NodeComm construction: over the full world
// it must reproduce the historical shapes exactly, on a single node it
// degenerates to no inter-node step, and any member list without the
// same contiguous population on every node is rejected.

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

// TestNodeCommRanksRejectsBadShapes: the node communicator is only
// defined for the same number of members on every node, each node's
// members contiguous in the list; anything else is a program bug.
func TestNodeCommRanksRejectsBadShapes(t *testing.T) {
	for name, members := range map[string][]int{
		"uneven":         {0, 1, 2, 4, 5}, // populations 3 and 2
		"empty node":     {0, 1, 2, 3},    // node 1 holds none
		"non-contiguous": {0, 4, 1, 5},    // each node split in two
		"scattered":      {0, 1, 4, 2},    // rank 4 splits node 0's block
	} {
		t.Run(name, func(t *testing.T) {
			w := testWorld(t, 2, 4)
			defer func() {
				if recover() == nil {
					t.Fatalf("member list %v did not panic", members)
				}
			}()
			NewNodeCommRanks(w, members)
		})
	}
}

// TestNodeCommRanksSingleNodeSurvives: every member on one node — the
// leader group is size 1 and the inter step degenerates to zero work.
func TestNodeCommRanksSingleNodeSurvives(t *testing.T) {
	const words = 128
	e := newAgEnv(t, agGeo{nodes: 1, ppn: 4, words: words})
	e.w.Run(func(p *mpi.Proc) {
		buf := make([]uint64, words)
		fillOwn(buf, e.l, e.g.Pos(p.Rank()))
		st := e.nc.Allgather(p, SchemeLeader, buf, nil, e.l, Exchange{})
		checkFull(t, "single-node", p.Rank(), buf, e.l)
		if st.InterNs != 0 {
			t.Errorf("rank %d charged inter time %g with one node", p.Rank(), st.InterNs)
		}
	})
}
