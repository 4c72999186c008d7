package obs

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"numabfs/internal/trace"
)

// syntheticRecorder builds a small fixed recording: two sessions, the
// first with two ranks across two segments, exercising every span
// category and the metadata events.
func syntheticRecorder() *Recorder {
	rec := NewRecorder()

	s := rec.NewSession("cfg A")
	r0 := s.AddRank(0, 0, 0)
	r1 := s.AddRank(1, 0, 1)
	r0.PhaseSpan(trace.TDComp, 1, 0, 100)
	r0.PhaseSpan(trace.TDComm, 1, 100, 150)
	r0.LevelSpan(false, 1, 0, 150)
	r1.Collective("allgather-ring", 20, 90)
	r1.PhaseSpan(trace.Stall, 1, 0, 20)
	s.Advance(150)
	r0.PhaseSpan(trace.BUComp, 2, 0, 75.5)
	r1.LevelSpan(true, 2, 0, 80)

	s2 := rec.NewSession("cfg B")
	r := s2.AddRank(0, 1, 3)
	r.PhaseSpan(trace.Switch, 3, 1.25, 9)

	return rec
}

func TestChromeTraceGolden(t *testing.T) {
	data, err := syntheticRecorder().Dump().ChromeTraceJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !json.Valid(data) {
		t.Fatal("exporter produced invalid JSON")
	}
	golden := filepath.Join("testdata", "chrome_golden.json")
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (regenerate with OBS_UPDATE_GOLDEN=1 go test -run TestRegenerateGolden): %v", err)
	}
	if string(data) != string(want) {
		t.Errorf("trace differs from %s:\n got: %s\nwant: %s", golden, data, want)
	}
}

// TestChromeTraceDeterminism pins the byte-for-byte determinism claim:
// two identical recordings must export identically.
func TestChromeTraceDeterminism(t *testing.T) {
	a, err := syntheticRecorder().Dump().ChromeTraceJSON()
	if err != nil {
		t.Fatal(err)
	}
	b, err := syntheticRecorder().Dump().ChromeTraceJSON()
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Fatal("two identical recordings exported different bytes")
	}
}

// TestChromeTraceStructure checks the trace_event invariants a viewer
// relies on: the envelope fields, complete events with non-negative
// ts/dur in each rank's track, and name/sort metadata per process and
// thread.
func TestChromeTraceStructure(t *testing.T) {
	data, err := syntheticRecorder().Dump().ChromeTraceJSON()
	if err != nil {
		t.Fatal(err)
	}
	var tr struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Cat  string         `json:"cat"`
			Ph   string         `json:"ph"`
			Ts   float64        `json:"ts"`
			Dur  *float64       `json:"dur"`
			Pid  int            `json:"pid"`
			Tid  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(data, &tr); err != nil {
		t.Fatal(err)
	}
	if tr.DisplayTimeUnit != "ns" {
		t.Errorf("displayTimeUnit = %q", tr.DisplayTimeUnit)
	}
	procNames := map[int]string{}
	threadNames := map[[2]int]bool{}
	var xCount int
	for _, e := range tr.TraceEvents {
		switch e.Ph {
		case "M":
			switch e.Name {
			case "process_name":
				procNames[e.Pid] = e.Args["name"].(string)
			case "thread_name":
				threadNames[[2]int{e.Pid, e.Tid}] = true
			}
		case "X":
			xCount++
			if e.Dur == nil {
				t.Fatalf("complete event %q lacks dur", e.Name)
			}
			if e.Ts < 0 || *e.Dur < 0 {
				t.Fatalf("event %q has negative ts/dur: %g/%g", e.Name, e.Ts, *e.Dur)
			}
			if !threadNames[[2]int{e.Pid, e.Tid}] {
				t.Fatalf("event %q on unnamed track pid=%d tid=%d", e.Name, e.Pid, e.Tid)
			}
		default:
			t.Fatalf("unexpected event phase %q", e.Ph)
		}
	}
	if procNames[1] != "cfg A" || procNames[2] != "cfg B" {
		t.Errorf("process names: %v", procNames)
	}
	// cfg A has 2 ranks, cfg B has 1: three named tracks.
	if len(threadNames) != 3 {
		t.Errorf("thread tracks = %d, want 3", len(threadNames))
	}
	// 7 spans in session A + 1 in session B.
	if xCount != 8 {
		t.Errorf("complete events = %d, want 8", xCount)
	}
}
