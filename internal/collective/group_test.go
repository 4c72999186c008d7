package collective

import (
	"testing"

	"numabfs/internal/mpi"
)

func TestStepStreamsCountsIntraAndInter(t *testing.T) {
	// 2 nodes x 4 ranks; a ring send topology i -> i+1.
	w := testWorld(t, 2, 4)
	g := WorldGroup(w)
	streams := g.stepStreams(&mpi.Shift{D: 1, Every: 1, Below: 8})
	// Ranks 0,1,2 send intra on node 0 (3 concurrent intra streams);
	// rank 3 sends inter (node 0: 1 outbound + 1 inbound = 2 streams).
	for _, i := range []int{0, 1, 2, 4, 5, 6} {
		if streams[i] != 3 {
			t.Errorf("intra sender %d: streams = %d, want 3", i, streams[i])
		}
	}
	for _, i := range []int{3, 7} {
		if streams[i] != 2 {
			t.Errorf("inter sender %d: streams = %d, want 2", i, streams[i])
		}
	}
}

func TestStepStreamsIdleMembers(t *testing.T) {
	w := testWorld(t, 2, 4)
	g := WorldGroup(w)
	// One inter pair, 0 <-> 4, the rest idle.
	streams := g.stepStreams(&mpi.Shift{D: 4, Xor: true, Every: 4, Below: 8})
	if streams[0] != 2 || streams[4] != 2 {
		t.Errorf("pair streams = %d, %d, want 2 (own out + in)", streams[0], streams[4])
	}
	for _, i := range []int{1, 2, 3, 5, 6, 7} {
		if streams[i] != 0 {
			t.Errorf("idle member %d: streams = %d", i, streams[i])
		}
	}
}

func TestGroupPosPanicsForNonMember(t *testing.T) {
	w := testWorld(t, 1, 4)
	g := NewGroup(w, []int{0, 2})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	g.Pos(1)
}

func TestLayouts(t *testing.T) {
	l := EvenLayout(10, 4)
	if got := l.TotalWords(); got != 10 {
		t.Fatalf("TotalWords = %d", got)
	}
	// 10 over 4: 3,3,2,2.
	want := []int64{3, 3, 2, 2}
	for i, w := range want {
		if l.Counts[i] != w {
			t.Fatalf("counts = %v, want %v", l.Counts, want)
		}
	}
	// Displacements are cumulative and disjoint.
	var off int64
	for i := range l.Counts {
		if l.Displs[i] != off {
			t.Fatalf("displs = %v", l.Displs)
		}
		off += l.Counts[i]
	}

	sl := SegLayout([]int64{0, 4, 4, 9})
	if sl.Counts[1] != 0 || sl.Counts[2] != 5 || sl.TotalWords() != 9 {
		t.Fatalf("SegLayout: %+v", sl)
	}
}

func TestNewGroupRejectsDuplicates(t *testing.T) {
	w := testWorld(t, 1, 4)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewGroup(w, []int{0, 1, 0})
}
