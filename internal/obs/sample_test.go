package obs

import (
	"testing"
)

// TestNilSamplerNoOps pins the disabled-sampler contract: every gauge
// hook must be safe and do nothing on a nil *Rank AND on a live rank
// whose session never enabled sampling.
func TestNilSamplerNoOps(t *testing.T) {
	var nilRank *Rank
	nilRank.Sample(GaugeFrontier, 5, 100)
	nilRank.Sample(GaugeRetransBacklog, 5, 100)
	nilRank.LinkTransfer(true, 4096, 0, 10)

	rec := NewRecorder()
	s := rec.NewSession("off")
	rk := s.AddRank(0, 0, 0)
	rk.Sample(GaugeFrontier, 5, 100)
	rk.Sample(GaugeRetransBacklog, 5, 100)
	rk.LinkTransfer(false, 64, 0, 10)
	for g := Gauge(0); g < NumGauges; g++ {
		if pts := series(rec, g); pts != nil {
			t.Fatalf("sampler-off rank recorded %s samples: %+v", g, pts)
		}
	}
}

// TestGaugeHooksZeroAlloc pins the hot-path cost with sampling off:
// gauge hooks on a nil rank and on an attached-but-unsampled rank must
// allocate nothing.
func TestGaugeHooksZeroAlloc(t *testing.T) {
	var nilRank *Rank
	rec := NewRecorder()
	rk := rec.NewSession("off").AddRank(0, 0, 0)
	if n := testing.AllocsPerRun(100, func() {
		nilRank.Sample(GaugeFrontier, 1, 2)
		nilRank.Sample(GaugeInterBytes, 1, 2)
		nilRank.LinkTransfer(true, 64, 0, 5)
		rk.Sample(GaugeFrontier, 1, 2)
		rk.Sample(GaugeInterBytes, 1, 2)
		rk.LinkTransfer(true, 64, 0, 5)
	}); n != 0 {
		t.Fatalf("gauge hooks allocate %g with sampling off, want 0", n)
	}
}

// series dumps the recorder and returns gauge g of its first rank.
func series(rec *Recorder, g Gauge) []GaugePoint {
	return rec.Dump().Sessions[0].Ranks[0].Gauges[g]
}

func TestGaugeFolding(t *testing.T) {
	rec := NewRecorder()
	s := rec.NewSession("fold")
	s.EnableSampling(100)
	rk := s.AddRank(0, 0, 0)

	// Cumulative gauge: samples in one bucket sum.
	rk.Sample(GaugeInterBytes, 10, 5)
	rk.Sample(GaugeInterBytes, 90, 7)
	rk.Sample(GaugeInterBytes, 150, 1)
	// Instantaneous gauge: the bucket keeps its peak, so a frontier that
	// drains to zero inside one coarse bucket still shows its maximum.
	rk.Sample(GaugeFrontier, 20, 11)
	rk.Sample(GaugeFrontier, 80, 13)
	rk.Sample(GaugeFrontier, 95, 4)
	rk.Sample(GaugeFrontier, 350, 17)

	ib := series(rec, GaugeInterBytes)
	if len(ib) != 2 || ib[0] != (GaugePoint{0, 12}) || ib[1] != (GaugePoint{1, 1}) {
		t.Fatalf("inter-bytes series = %+v", ib)
	}
	fr := series(rec, GaugeFrontier)
	if len(fr) != 2 || fr[0] != (GaugePoint{0, 13}) || fr[1] != (GaugePoint{3, 17}) {
		t.Fatalf("frontier series = %+v", fr)
	}
}

// TestGaugeEpochStitching: gauges recorded after Session.Advance land
// in buckets on the continuous session timeline, like spans.
func TestGaugeEpochStitching(t *testing.T) {
	rec := NewRecorder()
	s := rec.NewSession("stitch")
	s.EnableSampling(100)
	rk := s.AddRank(0, 0, 0)

	rk.Sample(GaugeFrontier, 50, 1) // bucket 0
	s.Advance(1000)                 // clocks reset; epoch now 1000
	rk.Sample(GaugeFrontier, 50, 2) // session time 1050 -> bucket 10

	fr := series(rec, GaugeFrontier)
	if len(fr) != 2 || fr[0] != (GaugePoint{0, 1}) || fr[1] != (GaugePoint{10, 2}) {
		t.Fatalf("stitched series = %+v", fr)
	}
}

// TestLinkTransferSpreading: a transfer spanning several buckets
// contributes bytes proportionally to each bucket's overlap, and the
// contributions sum to the transfer size.
func TestLinkTransferSpreading(t *testing.T) {
	rec := NewRecorder()
	s := rec.NewSession("spread")
	s.EnableSampling(100)
	rk := s.AddRank(0, 0, 0)

	// 400 bytes over [50, 250): 50ns in bucket 0, 100ns in bucket 1,
	// 50ns in bucket 2 -> 100, 200, 100 bytes.
	rk.LinkTransfer(true, 400, 50, 250)
	got := series(rec, GaugeInterBytes)
	want := []GaugePoint{{0, 100}, {1, 200}, {2, 100}}
	if len(got) != len(want) {
		t.Fatalf("series = %+v, want %+v", got, want)
	}
	var sum float64
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("series[%d] = %+v, want %+v", i, got[i], want[i])
		}
		sum += got[i].V
	}
	if sum != 400 {
		t.Fatalf("spread bytes sum to %g, want 400", sum)
	}

	// A transfer inside one bucket lands whole.
	rk.LinkTransfer(false, 64, 10, 20)
	intra := series(rec, GaugeIntraBytes)
	if len(intra) != 1 || intra[0] != (GaugePoint{0, 64}) {
		t.Fatalf("intra series = %+v", intra)
	}
}

func TestGaugeNames(t *testing.T) {
	seen := make(map[string]bool)
	for g := Gauge(0); g < NumGauges; g++ {
		name := g.String()
		if name == "" || name == "gauge-?" || seen[name] {
			t.Fatalf("gauge %d has bad or duplicate name %q", g, name)
		}
		seen[name] = true
		back, ok := GaugeByName(name)
		if !ok || back != g {
			t.Fatalf("GaugeByName(%q) = %v, %v", name, back, ok)
		}
	}
	if _, ok := GaugeByName("bogus"); ok {
		t.Fatal("GaugeByName accepted bogus name")
	}
}

func TestEnableSamplingValidation(t *testing.T) {
	rec := NewRecorder()
	s := rec.NewSession("bad")
	defer func() {
		if recover() == nil {
			t.Fatal("EnableSampling(0) did not panic")
		}
	}()
	s.EnableSampling(0)
}
