package fault

import (
	"encoding/json"
	"math"
	"strings"
	"testing"
)

// weakest returns n overlapping bandwidth events at the lowest factor.
func weakest(n int) []BWEvent {
	bw := make([]BWEvent, n)
	for i := range bw {
		bw[i] = BWEvent{Node: 0, Factor: MinBWFactor}
	}
	return bw
}

func TestPlanValidate(t *testing.T) {
	bad := []Plan{
		{BW: []BWEvent{{Node: 0, Factor: 0}}},
		{BW: []BWEvent{{Node: 0, Factor: 1.5}}}, // the 80-for-0.8 typo class
		{BW: []BWEvent{{Node: 0, Factor: 0.5, FromNs: -1}}},
		{BW: []BWEvent{{Node: 0, Factor: 0.5, FromNs: 5, UntilNs: 5}}},
		{Stragglers: []Straggler{{Rank: 0, Factor: 0}}},
		{Stragglers: []Straggler{{Rank: 4, Factor: 2}}},
		{Stragglers: []Straggler{{Rank: -1, Factor: 2}}},
		{JitterMaxNs: -1},
		{Crashes: []Crash{{Rank: 4, AtNs: 1}}},
		{Crashes: []Crash{{Rank: 0, AtNs: -1}}},
		// Finite multipliers that overflow a virtual clock.
		{Stragglers: []Straggler{{Rank: 1, Factor: 1e308}}},
		{BW: []BWEvent{{Node: 0, Src: -1, Dst: -1, Factor: 1e-320}}},
		{JitterMaxNs: 1e308},
		{Stragglers: []Straggler{{Rank: 1, Factor: 1e-320}}},
		{Stragglers: []Straggler{{Rank: 2, Factor: 1e4}, {Rank: 1, Factor: 2}, {Rank: 2, Factor: 1e4}}},
		{BW: weakest(26)},
		{BW: []BWEvent{{Node: 0, Factor: math.NaN()}}},
		{JitterMaxNs: math.NaN()},
	}
	for i, p := range bad {
		if err := p.Validate(4); err == nil {
			t.Errorf("bad plan %d validated: %+v", i, p)
		}
	}
	good := Plan{
		Seed:        1,
		BW:          []BWEvent{{Node: 99, Src: -1, Dst: -1, Factor: 0.5}}, // out-of-cluster node never matches, like WeakNode on small runs
		Stragglers:  []Straggler{{Rank: 3, Factor: 4}},
		JitterMaxNs: 50,
		Crashes:     []Crash{{Rank: 0, AtNs: 1e6}, {Rank: 3, AtNs: 5e5}},
	}
	if err := good.Validate(4); err != nil {
		t.Errorf("good plan rejected: %v", err)
	}
	// The bounds themselves are accepted.
	edge := Plan{
		BW:          weakest(24),
		Stragglers:  []Straggler{{Rank: 0, Factor: MaxComputeScale}, {Rank: 1, Factor: 1 / MaxComputeScale}},
		JitterMaxNs: MaxJitterNs,
	}
	if err := edge.Validate(4); err != nil {
		t.Errorf("plan at the bounds rejected: %v", err)
	}
	// A plan names each rank at most once in Crashes, and the error
	// names the repeated rank.
	twice := Plan{Crashes: []Crash{{Rank: 1, AtNs: 500}, {Rank: 3, AtNs: 9}, {Rank: 3, AtNs: 4, Permanent: true}}}
	if err := twice.Validate(4); err == nil || !strings.Contains(err.Error(), "rank 3") {
		t.Errorf("repeated crash rank: err = %v, want one naming rank 3", err)
	}
}

func TestWeakNodePlan(t *testing.T) {
	if len(WeakNode(-1, 0.8).BW) != 0 {
		t.Error("WeakNode(-1) should inject nothing")
	}
	p := WeakNode(2, 0.5)
	in, err := NewInjector(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	if f := in.LinkFactor(2, 0, 0); f != 0.5 {
		t.Errorf("src weak: factor %g, want 0.5", f)
	}
	if f := in.LinkFactor(0, 2, 1e12); f != 0.5 {
		t.Errorf("dst weak, forever: factor %g, want 0.5", f)
	}
	if f := in.LinkFactor(0, 1, 0); f != 1 {
		t.Errorf("unrelated link: factor %g, want exactly 1", f)
	}
}

func TestLinkFactorWindowsAndScope(t *testing.T) {
	p := Plan{BW: []BWEvent{
		{Node: 1, Src: -1, Dst: -1, Factor: 0.5, FromNs: 100, UntilNs: 200}, // brown-out
		{Node: -1, Src: 0, Dst: 2, Factor: 0.25},                            // directed link, forever
	}}
	in, err := NewInjector(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	if f := in.LinkFactor(1, 0, 50); f != 1 {
		t.Errorf("before window: %g", f)
	}
	if f := in.LinkFactor(1, 0, 100); f != 0.5 {
		t.Errorf("window start inclusive: %g", f)
	}
	if f := in.LinkFactor(0, 1, 199); f != 0.5 {
		t.Errorf("inside window (either endpoint): %g", f)
	}
	if f := in.LinkFactor(1, 0, 200); f != 1 {
		t.Errorf("window end exclusive: %g", f)
	}
	if f := in.LinkFactor(0, 2, 1e9); f != 0.25 {
		t.Errorf("directed link: %g", f)
	}
	if f := in.LinkFactor(2, 0, 1e9); f != 1 {
		t.Errorf("reverse of directed link: %g", f)
	}
	// src=1 dst=2 matches the node-1 brown-out but not the 0->2 link
	// event: only the brown-out applies.
	if f := in.LinkFactor(1, 2, 150); f != 0.5 {
		t.Errorf("endpoint-1 transfer at 150: %g, want 0.5", f)
	}
	p2 := Plan{BW: []BWEvent{
		{Node: 0, Src: -1, Dst: -1, Factor: 0.5},
		{Node: -1, Src: 0, Dst: 1, Factor: 0.5},
	}}
	in2, err := NewInjector(p2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if f := in2.LinkFactor(0, 1, 0); f != 0.25 {
		t.Errorf("overlapping events should multiply: %g, want 0.25", f)
	}
}

func TestComputeScale(t *testing.T) {
	p := Plan{Stragglers: []Straggler{{Rank: 1, Factor: 2}, {Rank: 1, Factor: 3}}}
	in, err := NewInjector(p, 4)
	if err != nil {
		t.Fatal(err)
	}
	if s := in.ComputeScale(0); s != 1 {
		t.Errorf("rank 0 scale %g, want exactly 1", s)
	}
	if s := in.ComputeScale(1); s != 6 {
		t.Errorf("rank 1 scale %g, want 6 (entries multiply)", s)
	}
}

func TestJitterDeterministicAndBounded(t *testing.T) {
	in, err := NewInjector(Plan{Seed: 42, JitterMaxNs: 100}, 0)
	if err != nil {
		t.Fatal(err)
	}
	var prev float64
	distinct := false
	for i := 0; i < 1000; i++ {
		sent := float64(i) * 17.5
		j := in.JitterNs(1, 2, sent, int64(i))
		if j < 0 || j >= 100 {
			t.Fatalf("jitter %g outside [0, 100)", j)
		}
		if j2 := in.JitterNs(1, 2, sent, int64(i)); j2 != j {
			t.Fatalf("jitter not deterministic: %g then %g", j, j2)
		}
		if i > 0 && j != prev {
			distinct = true
		}
		prev = j
	}
	if !distinct {
		t.Error("jitter constant across messages")
	}
	// A different seed gives a different draw for the same message.
	in2, _ := NewInjector(Plan{Seed: 43, JitterMaxNs: 100}, 0)
	if in.JitterNs(1, 2, 17.5, 1) == in2.JitterNs(1, 2, 17.5, 1) {
		t.Error("seed does not drive the jitter hash")
	}
}

func TestJitterOffIsExactlyZero(t *testing.T) {
	in, err := NewInjector(Plan{Seed: 42}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if j := in.JitterNs(0, 1, 123.4, 5); j != 0 {
		t.Errorf("jitter with JitterMaxNs=0: %g, want exactly 0", j)
	}
	var nilInj *Injector
	if nilInj.JitterNs(0, 1, 1, 1) != 0 || nilInj.LinkFactor(0, 1, 0) != 1 || nilInj.ComputeScale(0) != 1 {
		t.Error("nil injector must be the identity")
	}
}

func TestCrashScheduleAndDisarm(t *testing.T) {
	p := Plan{Crashes: []Crash{{Rank: 2, AtNs: 500, Permanent: true}, {Rank: 0, AtNs: 100}}}
	in, err := NewInjector(p, 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := in.NextCrash(1); ok {
		t.Error("rank 1 has no crash scheduled")
	}
	if at, ok := in.NextCrash(2); !ok || at != 500 || !in.CrashPermanent(2) {
		t.Errorf("NextCrash(2) = %g, %v, permanent %v; want 500, true, true", at, ok, in.CrashPermanent(2))
	}
	if at, ok := in.NextCrash(0); !ok || at != 100 || in.CrashPermanent(0) {
		t.Errorf("NextCrash(0) = %g, %v, permanent %v; want 100, true, false", at, ok, in.CrashPermanent(0))
	}
	in.Disarm(2)
	if _, ok := in.NextCrash(2); ok {
		t.Error("rank 2's crash disarmed but NextCrash still fires")
	}
	if at, ok := in.NextCrash(0); !ok || at != 100 {
		t.Errorf("disarming rank 2 touched rank 0: NextCrash(0) = %g, %v", at, ok)
	}
	var nilInj *Injector
	if _, ok := nilInj.NextCrash(0); ok || nilInj.CrashPermanent(0) {
		t.Error("nil injector must schedule no crash")
	}
	nilInj.Disarm(0)
}

// TestDetectTimeoutDefault pins the failure detector every committed
// crash figure was measured with: a 1 ms timeout, a lease renewed every
// quarter of it.
func TestDetectTimeoutDefault(t *testing.T) {
	if DetectTimeoutNs != 1e6 || HeartbeatPeriodNs != DetectTimeoutNs/4 {
		t.Errorf("detector: timeout %g, period %g; want 1e6 and a quarter of it", DetectTimeoutNs, HeartbeatPeriodNs)
	}
}

func TestPlanJSONRoundTrip(t *testing.T) {
	p := Plan{
		Seed:        9,
		BW:          []BWEvent{{Node: 3, Src: -1, Dst: -1, Factor: 0.8, FromNs: 10, UntilNs: 20}},
		Stragglers:  []Straggler{{Rank: 1, Factor: 1.5}},
		JitterMaxNs: 25,
		Crashes:     []Crash{{Rank: 0, AtNs: 1e6}},
	}
	data, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	var q Plan
	if err := json.Unmarshal(data, &q); err != nil {
		t.Fatal(err)
	}
	if q.Seed != p.Seed || len(q.BW) != 1 || q.BW[0] != p.BW[0] ||
		len(q.Stragglers) != 1 || q.Stragglers[0] != p.Stragglers[0] ||
		q.JitterMaxNs != p.JitterMaxNs || len(q.Crashes) != 1 || q.Crashes[0] != p.Crashes[0] {
		t.Errorf("round trip lost data: %+v -> %s -> %+v", p, data, q)
	}
}

func TestErrorMessage(t *testing.T) {
	e := &Error{Rank: 3, AtNs: 1.5e6}
	if e.Error() == "" || math.IsNaN(e.AtNs) {
		t.Error("empty error message")
	}
}

func TestPlanValidateLoss(t *testing.T) {
	bad := []Plan{
		{Loss: []Loss{{Node: -1, Src: -1, Dst: -1, DropProb: -0.1}}},
		{Loss: []Loss{{Node: -1, Src: -1, Dst: -1, DropProb: 1.5}}},
		{Loss: []Loss{{Node: -1, Src: -1, Dst: -1, DupProb: 2}}},
		{Loss: []Loss{{Node: -1, Src: -1, Dst: -1, CorruptProb: -1}}},
		{Loss: []Loss{{Node: -1, Src: -1, Dst: -1, ReorderProb: 1.01, ReorderWindow: 4}}},
		{Loss: []Loss{{Node: -1, Src: -1, Dst: -1, ReorderWindow: -2}}},
		{Loss: []Loss{{Node: -1, Src: -1, Dst: -1, ReorderProb: 0.5}}}, // reorder without a window
		{Loss: []Loss{{Node: -1, Src: -1, Dst: -1, DropProb: 0.1, FromNs: -5}}},
		{Loss: []Loss{{Node: -1, Src: -1, Dst: -1, DropProb: 0.1, FromNs: 9, UntilNs: 9}}},
	}
	for i, p := range bad {
		if err := p.Validate(4); err == nil {
			t.Errorf("bad loss plan %d validated: %+v", i, p)
		}
	}
	good := []Plan{
		Lossy(1, 0.05),
		Lossy(1, 0), // transport on, nothing lost
		{Loss: []Loss{{Node: 2, Src: -1, Dst: -1, DropProb: 1, FromNs: 100, UntilNs: 200}}}, // total brown-out window
		{Loss: []Loss{{Node: -1, Src: 0, Dst: 1, CorruptProb: 0.3}}},
	}
	for i, p := range good {
		if err := p.Validate(4); err != nil {
			t.Errorf("good loss plan %d rejected: %v", i, err)
		}
	}
}

func TestLossAtScopeAndCombination(t *testing.T) {
	p := Plan{Loss: []Loss{
		{Node: 1, Src: -1, Dst: -1, DropProb: 0.5, FromNs: 100, UntilNs: 200},
		{Node: -1, Src: 0, Dst: 2, DropProb: 0.5, DupProb: 0.25, ReorderProb: 0.1, ReorderWindow: 3},
	}}
	in, err := NewInjector(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	if l := in.LossAt(1, 0, 50); l != (LinkLoss{}) {
		t.Errorf("before window: %+v", l)
	}
	if l := in.LossAt(1, 0, 100); l.Drop != 0.5 {
		t.Errorf("window start inclusive: %+v", l)
	}
	if l := in.LossAt(0, 2, 1e9); l.Drop != 0.5 || l.Dup != 0.25 || l.Window != 3 {
		t.Errorf("directed link: %+v", l)
	}
	if l := in.LossAt(2, 0, 1e9); l != (LinkLoss{}) {
		t.Errorf("reverse of directed link: %+v", l)
	}
	// Inside the window both events hit the 0->2... no: src 0 dst 2 does
	// not touch node 1. Use 1->2 at 150: only the brown-out applies.
	if l := in.LossAt(1, 2, 150); l.Drop != 0.5 || l.Dup != 0 {
		t.Errorf("endpoint-1 frame at 150: %+v", l)
	}
	// Overlap: two 0.5 drops combine as independent hazards.
	p2 := Plan{Loss: []Loss{
		{Node: 0, Src: -1, Dst: -1, DropProb: 0.5},
		{Node: -1, Src: 0, Dst: 1, DropProb: 0.5, ReorderProb: 0.2, ReorderWindow: 2},
	}}
	in2, _ := NewInjector(p2, 0)
	if l := in2.LossAt(0, 1, 0); math.Abs(l.Drop-0.75) > 1e-12 || l.Window != 2 {
		t.Errorf("overlap: %+v, want drop 0.75 window 2", l)
	}
	var nilInj *Injector
	if nilInj.LossAt(0, 1, 0) != (LinkLoss{}) || nilInj.Reliable() {
		t.Error("nil injector must be loss-free and unreliable-transport-off")
	}
}

func TestReliableSwitch(t *testing.T) {
	in, _ := NewInjector(Plan{JitterMaxNs: 5}, 0)
	if in.Reliable() {
		t.Error("plan without loss events must not activate the transport")
	}
	in2, _ := NewInjector(Lossy(1, 0), 0)
	if !in2.Reliable() {
		t.Error("zero-rate loss event must still activate the transport")
	}
}

func TestTransportDrawDeterministicBoundedIndependent(t *testing.T) {
	in, _ := NewInjector(Lossy(42, 0.05), 0)
	seen := map[float64]bool{}
	for attempt := 1; attempt <= 100; attempt++ {
		d := in.TransportDraw(DrawDrop, 1, 2, 1234.5, 999, attempt)
		if d < 0 || d >= 1 {
			t.Fatalf("draw %g outside [0, 1)", d)
		}
		if d2 := in.TransportDraw(DrawDrop, 1, 2, 1234.5, 999, attempt); d2 != d {
			t.Fatalf("draw not deterministic: %g then %g", d, d2)
		}
		seen[d] = true
	}
	if len(seen) < 95 {
		t.Errorf("only %d distinct draws across 100 attempts", len(seen))
	}
	// Purposes are independent hash lanes.
	if in.TransportDraw(DrawDrop, 1, 2, 10, 8, 1) == in.TransportDraw(DrawDup, 1, 2, 10, 8, 1) {
		t.Error("purposes share a hash lane")
	}
	// Seed drives the draws.
	in2, _ := NewInjector(Lossy(43, 0.05), 0)
	if in.TransportDraw(DrawDrop, 1, 2, 10, 8, 1) == in2.TransportDraw(DrawDrop, 1, 2, 10, 8, 1) {
		t.Error("seed does not drive the transport hash")
	}
}

// TestTransportTuningDefaults pins the transport schedule every
// committed loss figure was measured with: a 20 µs first timeout,
// doubled per retry, and 16 transmissions per frame.
func TestTransportTuningDefaults(t *testing.T) {
	if RetransmitTimeoutNs != 20e3 || RetransmitBackoff != 2 || RetryBudget != 16 {
		t.Errorf("transport: rto %g, backoff %g, budget %d; want 20e3, 2, 16",
			RetransmitTimeoutNs, RetransmitBackoff, RetryBudget)
	}
}

func TestLossyHelper(t *testing.T) {
	p := Lossy(7, 0.04)
	if err := p.Validate(0); err != nil {
		t.Fatal(err)
	}
	if p.Seed != 7 || len(p.Loss) != 1 {
		t.Fatalf("Lossy shape: %+v", p)
	}
	e := p.Loss[0]
	if e.DropProb != 0.04 || e.DupProb != 0.02 || e.CorruptProb != 0.01 || e.ReorderProb != 0.04 || e.ReorderWindow != 4 {
		t.Errorf("Lossy rates: %+v", e)
	}
	if e.Node != -1 || e.Src != -1 || e.Dst != -1 {
		t.Errorf("Lossy must cover every link: %+v", e)
	}
}

func TestLossJSONRoundTrip(t *testing.T) {
	p := Plan{
		Seed: 3,
		Loss: []Loss{{Node: -1, Src: 0, Dst: 1, DropProb: 0.02, DupProb: 0.01, CorruptProb: 0.005, ReorderProb: 0.02, ReorderWindow: 4, FromNs: 10, UntilNs: 20}},
	}
	data, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	var q Plan
	if err := json.Unmarshal(data, &q); err != nil {
		t.Fatal(err)
	}
	if q.Seed != p.Seed || len(q.Loss) != 1 || q.Loss[0] != p.Loss[0] {
		t.Errorf("round trip lost data: %+v -> %s -> %+v", p, data, q)
	}
}

func TestErrorKinds(t *testing.T) {
	crash := &Error{Rank: 3, AtNs: 1.5e6}
	if crash.Kind != KindCrash {
		t.Error("zero Kind must be KindCrash for backward compatibility")
	}
	loss := &Error{Rank: 1, AtNs: 2e6, Kind: KindLinkLoss}
	if crash.Error() == loss.Error() {
		t.Error("kinds must render distinct messages")
	}
	if !strings.Contains(loss.Error(), "retry budget") {
		t.Errorf("link-loss message: %q", loss.Error())
	}
}

// TestPermanentAndHeartbeatJSONRoundTrip: the permanent flag survives
// the plan's JSON encoding, and a transient crash still omits it.
func TestPermanentAndHeartbeatJSONRoundTrip(t *testing.T) {
	p := Plan{Crashes: []Crash{{Rank: 2, AtNs: 1e6, Permanent: true}, {Rank: 5, AtNs: 3e6}}}
	data, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	var q Plan
	if err := json.Unmarshal(data, &q); err != nil {
		t.Fatal(err)
	}
	if len(q.Crashes) != 2 ||
		q.Crashes[0] != p.Crashes[0] || q.Crashes[1] != p.Crashes[1] {
		t.Errorf("round trip lost data: %+v -> %s -> %+v", p, data, q)
	}
	if strings.Contains(string(data), `"permanent":false`) {
		t.Errorf("transient crash serialized a permanent field: %s", data)
	}
}
