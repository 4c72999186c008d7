package obs

import (
	"encoding/json"
	"testing"

	"numabfs/internal/trace"
)

// multiRootRecorder builds a recording with many (segment, level)
// instances whose durations differ in the low float bits, so any
// map-iteration-ordered accumulation in the report would produce
// run-to-run differences.
func multiRootRecorder() *Recorder {
	rec := NewRecorder()
	s := rec.NewSession("many roots")
	r0 := s.AddRank(0, 0, 0)
	r1 := s.AddRank(1, 0, 1)
	for root := 0; root < 8; root++ {
		for lvl := 0; lvl < 5; lvl++ {
			start := float64(lvl) * 10
			// Durations with a fractional part that does not sum exactly
			// in floating point, to expose order-dependent accumulation.
			d := 7.1 + float64(root)*0.3 + float64(lvl)*0.7
			r0.PhaseSpan(trace.TDComp, lvl, start, start+d)
			r0.PhaseSpan(trace.Stall, lvl, start+d, start+d+0.1*float64(root+1))
			r0.LevelSpan(false, lvl, start, start+d+0.1*float64(root+1))
			r1.PhaseSpan(trace.BUComp, lvl, start, start+d*1.01)
			r1.LevelSpan(false, lvl, start, start+d*1.01)
		}
		s.Advance(100)
	}
	return rec
}

// TestReportDeterminism pins that Run.Report is byte-identical across
// repeats: the level fold must iterate instances in sorted order, not
// map order, or float accumulation and row naming drift between runs.
func TestReportDeterminism(t *testing.T) {
	var wantText string
	var wantJSON []byte
	for i := 0; i < 20; i++ {
		rep := multiRootRecorder().Dump().Report()
		text := rep.String()
		j, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			wantText, wantJSON = text, j
			continue
		}
		if text != wantText {
			t.Fatalf("report text differs on repeat %d:\n%s\n--- vs ---\n%s", i, text, wantText)
		}
		if string(j) != string(wantJSON) {
			t.Fatalf("report JSON differs on repeat %d", i)
		}
	}
}
