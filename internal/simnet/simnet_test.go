package simnet

import (
	"math"
	"testing"
	"testing/quick"

	"numabfs/internal/fault"
	"numabfs/internal/machine"
)

func testConfig() machine.Config {
	cfg := machine.TableI()
	cfg.WeakNode = -1
	return cfg
}

func testNet() *Network { return New(testConfig()) }

func TestTransferTimeComponents(t *testing.T) {
	cfg := testConfig()
	n := New(cfg)
	// Zero-byte transfers pay only alpha.
	if got := n.TransferTime(0, 0, 1, 1); got != cfg.InterNodeAlphaNs {
		t.Fatalf("zero-byte inter = %g, want alpha %g", got, cfg.InterNodeAlphaNs)
	}
	if got := n.TransferTime(0, 0, 0, 1); got != cfg.IntraNodeAlphaNs {
		t.Fatalf("zero-byte intra = %g, want alpha %g", got, cfg.IntraNodeAlphaNs)
	}
	// One MB inter-node at one stream: alpha + bytes/stream-bw.
	want := cfg.InterNodeAlphaNs + float64(1<<20)/cfg.StreamBandwidth(1)
	if got := n.TransferTime(1<<20, 0, 1, 1); got != want {
		t.Fatalf("1MB inter = %g, want %g", got, want)
	}
}

func TestMoreStreamsSlowerEach(t *testing.T) {
	n := testNet()
	t1 := n.TransferTime(1<<20, 0, 1, 1)
	t8 := n.TransferTime(1<<20, 0, 1, 8)
	if t8 <= t1 {
		t.Fatalf("per-stream time with 8 streams (%g) should exceed 1 stream (%g)", t8, t1)
	}
	// But aggregate improves: 8 concurrent 1MB transfers finish sooner
	// than 8 sequential ones.
	if t8 >= 8*t1 {
		t.Fatalf("8 streams give no aggregate benefit: %g vs %g", t8, 8*t1)
	}
}

func TestWeakNodeSlowsTransfers(t *testing.T) {
	cfg := machine.TableI()
	cfg.WeakNode = 2
	cfg.WeakNodeBWFactor = 0.5
	n := New(cfg)
	normal := n.TransferTime(1<<20, 0, 1, 1)
	weakSrc := n.TransferTime(1<<20, 2, 1, 1)
	weakDst := n.TransferTime(1<<20, 0, 2, 1)
	if weakSrc <= normal || weakDst <= normal {
		t.Fatalf("weak node not slower: normal %g, src %g, dst %g", normal, weakSrc, weakDst)
	}
	// Intra-node traffic on the weak node is unaffected (its problem is
	// the InfiniBand path).
	intraWeak := n.TransferTime(1<<20, 2, 2, 1)
	intraOK := n.TransferTime(1<<20, 0, 0, 1)
	if intraWeak != intraOK {
		t.Fatalf("weak node slowed intra traffic: %g vs %g", intraWeak, intraOK)
	}
}

func TestVolumeCounters(t *testing.T) {
	n := testNet()
	n.TransferTime(100, 0, 0, 1)
	n.TransferTime(200, 0, 1, 1)
	n.TransferTime(300, 1, 0, 1)
	v := n.Volume()
	if v.IntraBytes != 100 || v.InterBytes != 500 {
		t.Fatalf("volume = %+v", v)
	}
	if v.IntraMsgs != 1 || v.InterMsgs != 2 {
		t.Fatalf("messages = %+v", v)
	}
	n.ResetVolume()
	if v := n.Volume(); v.IntraBytes != 0 || v.InterBytes != 0 {
		t.Fatalf("counters survive reset: %+v", v)
	}
}

func TestNodeBandwidthCurve(t *testing.T) {
	// Fig. 4's shape: k streams at the shared-NIC rate the transfers are
	// priced at rise monotonically to the two-port peak.
	cfg := testConfig()
	prev := 0.0
	for k := 1; k <= 8; k++ {
		bw := float64(k) * cfg.StreamBandwidth(k)
		if bw < prev {
			t.Fatalf("bandwidth curve not monotone at %d streams", k)
		}
		prev = bw
	}
	if peak := cfg.NodeIBBandwidth(); prev != peak {
		t.Fatalf("8 streams reach %g, want peak %g", prev, peak)
	}
}

func TestNegativeSizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	testNet().TransferTime(-1, 0, 1, 1)
}

func TestTransferTimeMonotoneInSizeProperty(t *testing.T) {
	n := testNet()
	f := func(a, b uint32, sameNode bool, streams uint8) bool {
		s := int(streams%8) + 1
		dst := 1
		if sameNode {
			dst = 0
		}
		lo, hi := int64(a%1e6), int64(b%1e6)
		if lo > hi {
			lo, hi = hi, lo
		}
		return n.TransferTime(lo, 0, dst, s) <= n.TransferTime(hi, 0, dst, s)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestTransferTimeAtWindowedDegradation(t *testing.T) {
	n := testNet()
	inj, err := fault.NewInjector(fault.Plan{BW: []fault.BWEvent{
		{Node: 1, Src: -1, Dst: -1, Factor: 0.5, FromNs: 1000, UntilNs: 2000},
	}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	n.SetInjector(inj)
	clean := n.TransferTimeAt(0, 1<<20, 0, 1, 1)
	during := n.TransferTimeAt(1500, 1<<20, 0, 1, 1)
	after := n.TransferTimeAt(2000, 1<<20, 0, 1, 1)
	if during <= clean {
		t.Fatalf("brown-out window did not slow the transfer: %g vs %g", during, clean)
	}
	if clean != after {
		t.Fatalf("degradation leaked outside its window: %g vs %g", clean, after)
	}
	// Intra-node transfers never pay inter-node link degradation.
	if a, b := n.TransferTimeAt(1500, 1<<20, 1, 1, 4), n.TransferTimeAt(0, 1<<20, 1, 1, 4); a != b {
		t.Fatalf("link fault applied to intra-node transfer: %g vs %g", a, b)
	}
	if got := n.Volume().DegradedMsgs; got != 1 {
		t.Fatalf("DegradedMsgs = %d, want 1 (only the in-window inter-node transfer)", got)
	}
}

func TestIntraNodeBandwidthRejectsBadStreams(t *testing.T) {
	n := testNet()
	defer func() {
		if recover() == nil {
			t.Fatal("IntraNodeBandwidth(0) should panic, not silently clamp")
		}
	}()
	n.IntraNodeBandwidth(0)
}

func TestXportLedger(t *testing.T) {
	n := testNet()
	if n.Volume().Xport != (Xport{}) {
		t.Fatal("fresh network has transport counters")
	}
	n.CountXportOverhead(48)
	n.CountXportEvents(3, 1, 2, 1, 5)
	wire := n.TransferTime(1000, 0, 1, 1)
	if wire <= 0 {
		t.Fatal("transfer charged no time")
	}
	v := n.Volume()
	want := Xport{OverheadBytes: 48, Retransmits: 3, Corruptions: 1, Duplicates: 2, Reorders: 1, Acks: 5}
	if v.Xport != want {
		t.Fatalf("xport = %+v, want %+v", v.Xport, want)
	}
	// The overhead ledger sits beside the wire volume: counting it adds
	// no bytes to InterBytes, which only the transfer charged.
	if v.InterBytes != 1000 {
		t.Fatalf("inter bytes %d, want the transfer's 1000", v.InterBytes)
	}
	n.ResetVolume()
	if n.Volume().Xport != (Xport{}) {
		t.Fatal("ResetVolume left transport counters")
	}
}

// TestSetInjectorConcurrentWithTransfers pins the injector swap as safe
// under the race detector: SetInjector was a plain pointer write racing
// TransferTimeAt readers on rank goroutines; it is now an atomic swap.
// Run with -race to make this meaningful.
func TestSetInjectorConcurrentWithTransfers(t *testing.T) {
	n := testNet()
	inj, err := fault.NewInjector(fault.WeakNode(0, 0.5), 0)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 1000; i++ {
			n.TransferTimeAt(float64(i), 4096, 0, 1, 1)
		}
	}()
	for i := 0; i < 1000; i++ {
		n.SetInjector(inj)
		if n.Injector() == nil {
			t.Fatal("Injector() returned nil after SetInjector")
		}
	}
	<-done
}

// TestCountMatchesPerMessage: a mix of intra-node, inter-node and
// degraded transfers, tallied and added once with Count, leaves the same
// Volume, every field, as pricing each through TransferTimeAt and
// counting its raw size with CountRaw; each message's duration priced
// from Path and the link factor is bit-equal to TransferTimeAt's.
func TestCountMatchesPerMessage(t *testing.T) {
	inj, err := fault.NewInjector(fault.Plan{BW: []fault.BWEvent{
		{Node: 2, Src: -1, Dst: -1, Factor: 0.5},
		{Node: -1, Src: 0, Dst: 1, Factor: 0.75, FromNs: 100, UntilNs: 200},
	}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	each, batch := testNet(), testNet()
	each.SetInjector(inj)
	batch.SetInjector(inj)
	var v Volume
	for _, m := range []struct {
		at              float64
		bytes, raw      int64
		src, dst, strms int
	}{
		{0, 100, 300, 0, 0, 1}, {50, 200, 200, 0, 1, 2}, {150, 4096, 8000, 0, 1, 8},
		{150, 64, 64, 2, 3, 1}, {0, 0, 0, 2, 2, 3}, {300, 1 << 20, 3 << 20, 1, 2, 16},
		{199.5, 777, 1000, 0, 1, 1}, {200, 777, 1000, 0, 1, 1}, {10, 12345, 12345, 3, 3, 7},
	} {
		intra, f := m.src == m.dst, 1.0
		want := each.TransferTimeAt(m.at, m.bytes, m.src, m.dst, m.strms)
		each.CountRaw(m.raw, intra)
		if intra {
			v.IntraMsgs, v.IntraBytes, v.RawIntraBytes = v.IntraMsgs+1, v.IntraBytes+m.bytes, v.RawIntraBytes+m.raw
		} else {
			v.InterMsgs, v.InterBytes, v.RawInterBytes = v.InterMsgs+1, v.InterBytes+m.bytes, v.RawInterBytes+m.raw
			if f = inj.LinkFactor(m.src, m.dst, m.at); f != 1 {
				v.DegradedMsgs++
			}
		}
		if got := batch.Path(intra, m.strms).Time(m.bytes, f); math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("%+v: Path prices %v, TransferTimeAt %v", m, got, want)
		}
	}
	each.CountXportOverhead(48)
	each.CountXportEvents(3, 1, 2, 1, 5)
	v.Xport = Xport{OverheadBytes: 48, Retransmits: 3, Corruptions: 1, Duplicates: 2, Reorders: 1, Acks: 5}
	batch.Count(&v)
	if got, want := batch.Volume(), each.Volume(); got != want {
		t.Fatalf("batched volume %+v, per message %+v", got, want)
	}
	if v.DegradedMsgs < 2 || v.IntraMsgs < 2 {
		t.Fatalf("the mix lacks degraded or intra-node messages: %+v", v)
	}
}
