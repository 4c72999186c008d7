package obs

import (
	"testing"

	"numabfs/internal/trace"
)

func TestClassifyHop(t *testing.T) {
	cases := []struct {
		sn, ss, dn, ds int
		want           Hop
	}{
		{0, 0, 0, 0, HopIntraSocket},
		{0, 3, 0, 3, HopIntraSocket},
		{0, 0, 0, 1, HopIntraNode},
		{0, 7, 0, 0, HopIntraNode},
		{0, 0, 1, 0, HopInterNode},
		// Same socket ordinal on different nodes is still inter-node.
		{2, 5, 3, 5, HopInterNode},
	}
	for _, c := range cases {
		if got := ClassifyHop(c.sn, c.ss, c.dn, c.ds); got != c.want {
			t.Errorf("ClassifyHop(%d,%d -> %d,%d) = %v, want %v",
				c.sn, c.ss, c.dn, c.ds, got, c.want)
		}
	}
	names := map[Hop]string{
		HopIntraSocket: "intra-socket", HopIntraNode: "intra-node", HopInterNode: "inter-node",
	}
	for h, want := range names {
		if h.String() != want {
			t.Errorf("%d.String() = %q, want %q", h, h.String(), want)
		}
	}
}

// TestNilRankNoOps pins the disabled-recorder contract: every hook the
// hot paths call must be safe (and do nothing) on a nil *Rank.
func TestNilRankNoOps(t *testing.T) {
	var r *Rank
	r.PhaseSpan(trace.TDComp, 1, 0, 10)
	r.LevelSpan(true, 1, 0, 10)
	r.Collective("allgather-ring", 0, 10)
	r.CountMsg(HopInterNode, 4096, 4096)
	r.BarrierWait(3)
	r.NodeBarrierWait(2)
	if r.Spans() != nil {
		t.Fatal("nil rank has spans")
	}
}

func TestSessionEpochStitching(t *testing.T) {
	rec := NewRecorder()
	s := rec.NewSession("test")
	rk := s.AddRank(0, 0, 0)

	// Segment 0 (setup): a span on the raw clock.
	rk.PhaseSpan(trace.TDComp, 0, 5, 10)
	s.Advance(100) // setup took 100 ns; clocks reset

	// Segment 1 (first root): raw clocks restart at 0.
	rk.PhaseSpan(trace.BUComp, 2, 1, 4)
	s.Advance(50)

	// Segment 2: zero-length advance must not create a segment.
	s.Advance(0)
	rk.LevelSpan(false, 1, 0, 7)

	sp := rk.Spans()
	if len(sp) != 3 {
		t.Fatalf("spans = %d, want 3", len(sp))
	}
	if sp[0].Start != 5 || sp[0].End != 10 {
		t.Errorf("setup span = [%g, %g], want [5, 10]", sp[0].Start, sp[0].End)
	}
	if sp[1].Start != 101 || sp[1].End != 104 {
		t.Errorf("root-1 span = [%g, %g], want [101, 104]", sp[1].Start, sp[1].End)
	}
	if sp[2].Start != 150 || sp[2].End != 157 {
		t.Errorf("root-2 span = [%g, %g], want [150, 157]", sp[2].Start, sp[2].End)
	}

	rs := rec.Dump().Sessions[0]
	if got := rs.Marks; len(got) != 2 || got[0] != 100 || got[1] != 150 {
		t.Fatalf("marks = %v, want [100 150]", got)
	}
	for _, c := range []struct {
		t    float64
		want int
	}{{0, 0}, {99.9, 0}, {100, 1}, {120, 1}, {150, 2}, {1e9, 2}} {
		if got := rs.segment(c.t); got != c.want {
			t.Errorf("segment(%g) = %d, want %d", c.t, got, c.want)
		}
	}
}

func TestCommCounters(t *testing.T) {
	rec := NewRecorder()
	s := rec.NewSession("test")
	rk := s.AddRank(3, 1, 2)
	rk.CountMsg(HopIntraNode, 100, 100)
	rk.CountMsg(HopIntraNode, 50, 50)
	rk.CountMsg(HopInterNode, 8, 64)
	rk.BarrierWait(10)
	rk.BarrierWait(0)
	rk.NodeBarrierWait(4)
	rk.Collective("allreduce", 0, 1)
	rk.Collective("allreduce", 2, 3)

	c := rec.Dump().Sessions[0].Ranks[0].Comm
	if c.Msgs[HopIntraNode] != 2 || c.Bytes[HopIntraNode] != 150 {
		t.Errorf("intra-node = %d msgs / %d B", c.Msgs[HopIntraNode], c.Bytes[HopIntraNode])
	}
	if c.Msgs[HopInterNode] != 1 || c.Bytes[HopInterNode] != 8 {
		t.Errorf("inter-node = %d msgs / %d B", c.Msgs[HopInterNode], c.Bytes[HopInterNode])
	}
	if c.RawBytes[HopIntraNode] != 150 || c.RawBytes[HopInterNode] != 64 {
		t.Errorf("raw bytes = %v", c.RawBytes)
	}
	if c.Barriers != 2 || c.BarrierWaitNs != 10 || len(c.BarrierWaits) != 2 {
		t.Errorf("barriers: %+v", c)
	}
	if c.NodeBarriers != 1 || c.NodeBarrierWaitNs != 4 {
		t.Errorf("node barriers: %+v", c)
	}
	if c.Collectives["allreduce"] != 2 {
		t.Errorf("collectives: %v", c.Collectives)
	}
}
