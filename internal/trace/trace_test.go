package trace

import (
	"encoding/json"
	"strings"
	"testing"
)

func TestAddTotalProportion(t *testing.T) {
	var b Breakdown
	b.Add(TDComp, 10)
	b.Add(BUComp, 30)
	b.Add(BUComm, 60)
	if b.Total() != 100 {
		t.Fatalf("Total = %g", b.Total())
	}
	if got := b.Proportion(BUComm); got != 0.6 {
		t.Fatalf("Proportion(BUComm) = %g", got)
	}
	var empty Breakdown
	if empty.Proportion(TDComp) != 0 {
		t.Fatal("empty proportion should be 0")
	}
}

func TestAvgBUComm(t *testing.T) {
	var b Breakdown
	b.Add(BUComm, 90)
	b.BUCommCount = 3
	if got := b.AvgBUCommNs(); got != 30 {
		t.Fatalf("AvgBUCommNs = %g", got)
	}
	var none Breakdown
	if none.AvgBUCommNs() != 0 {
		t.Fatal("no comm phases should average 0")
	}
}

func TestMergeAndScale(t *testing.T) {
	var a, b Breakdown
	a.Add(Stall, 5)
	a.TDLevels = 2
	b.Add(Stall, 7)
	b.BULevels = 3
	b.BUCommCount = 3
	a.Merge(b)
	if a.Ns[Stall] != 12 || a.TDLevels != 2 || a.BULevels != 3 || a.BUCommCount != 3 {
		t.Fatalf("merge: %+v", a)
	}
	a.Scale(0.5)
	if a.Ns[Stall] != 6 {
		t.Fatalf("scale: %g", a.Ns[Stall])
	}
}

func TestPhaseStrings(t *testing.T) {
	want := map[Phase]string{
		TDComp: "td-comp", TDComm: "td-comm", BUComp: "bu-comp",
		BUComm: "bu-comm", Switch: "switch", Stall: "stall",
		Recovery: "recovery", Xport: "xport", Overlap: "overlap", Reown: "reown",
	}
	for p, s := range want {
		if p.String() != s {
			t.Errorf("%d.String() = %q, want %q", p, p.String(), s)
		}
	}
	if Phase(42).String() == "" {
		t.Error("unknown phase must render")
	}
	var b Breakdown
	b.Add(BUComp, 2e6)
	if !strings.Contains(b.String(), "bu-comp=2.00ms") {
		t.Errorf("Breakdown.String() = %q", b.String())
	}
}

func TestPhaseNamesRoundTrip(t *testing.T) {
	names := PhaseNames()
	if len(names) != int(NumPhases) {
		t.Fatalf("PhaseNames() has %d entries, want %d", len(names), NumPhases)
	}
	for i, name := range names {
		if name != Phase(i).String() {
			t.Errorf("names[%d] = %q, want %q", i, name, Phase(i))
		}
		p, ok := PhaseByName(name)
		if !ok || p != Phase(i) {
			t.Errorf("PhaseByName(%q) = %v, %v", name, p, ok)
		}
	}
	if _, ok := PhaseByName("not-a-phase"); ok {
		t.Error("unknown name resolved")
	}
}

func TestBreakdownMarshalJSON(t *testing.T) {
	var b Breakdown
	b.Add(TDComp, 10)
	b.Add(BUComm, 40)
	b.Add(Stall, 5)
	b.TDLevels = 2
	b.BULevels = 3
	b.BUCommCount = 3
	data, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]float64
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"td_comp_ns": 10, "td_comm_ns": 0, "bu_comp_ns": 0, "bu_comm_ns": 40,
		"switch_ns": 0, "stall_ns": 5, "recovery_ns": 0,
		"reown_ns": 0, "xport_ns": 0, "overlap_ns": 0, "overlap_exposed_ns": 0,
		"total_ns":  55,
		"td_levels": 2, "bu_levels": 3, "bu_comm_count": 3,
	}
	if len(m) != len(want) {
		t.Fatalf("fields = %v, want %v", m, want)
	}
	for k, v := range want {
		if m[k] != v {
			t.Errorf("%s = %g, want %g", k, m[k], v)
		}
	}
	// A pointer marshals the same way (the method has a value receiver).
	pdata, err := json.Marshal(&b)
	if err != nil {
		t.Fatal(err)
	}
	if string(pdata) != string(data) {
		t.Fatalf("pointer marshal differs: %s vs %s", pdata, data)
	}
}
