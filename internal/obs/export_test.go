package obs

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"numabfs/internal/trace"
)

// sampledRecorder builds a fixed recording that exercises the full
// export surface: two sessions, the first sampled (gauges, link peak,
// comm counters, two segments), the second without sampling.
func sampledRecorder() *Recorder {
	rec := NewRecorder()

	s := rec.NewSession("lvl5 scale=14")
	s.EnableSampling(100)
	s.SetLinkPeak(2.5)
	r0 := s.AddRank(0, 0, 0)
	r1 := s.AddRank(1, 0, 1)

	r0.PhaseSpan(trace.TDComp, 0, 0, 120)
	r0.PhaseSpan(trace.TDComm, 0, 120, 200)
	r0.LevelSpan(false, 0, 0, 200)
	r0.Sample(GaugeFrontier, 200, 64)
	r0.Sample(GaugeFrontierDensity, 200, 0.25)
	r0.LinkTransfer(true, 500, 120, 200)
	r0.CountMsg(HopInterNode, 500, 800)
	r0.BarrierWait(12)
	r0.NodeBarrierWait(8)

	r1.PhaseSpan(trace.BUComp, 0, 0, 90)
	r1.PhaseSpan(trace.Stall, 0, 90, 200)
	r1.LevelSpan(true, 0, 0, 200)
	r1.Collective("allgather-pipelined", 10, 80)
	r1.Overlap(55, 15)
	r1.Sample(GaugeExposedWait, 70, 15)
	r1.Sample(GaugeCkptBytes, 150, 4096)
	r1.LinkTransfer(false, 320, 30, 60)
	r1.BarrierWait(30)

	s.Advance(200)
	r0.PhaseSpan(trace.TDComp, 1, 0, 50)
	r0.Sample(GaugeFrontier, 50, 8)
	r1.Xport(2, 1, 1, 1, 3, 96, 44)
	r1.Sample(GaugeRetransBacklog, 20, 2)

	s2 := rec.NewSession("plain")
	r := s2.AddRank(0, 1, 2)
	r.PhaseSpan(trace.Switch, 2, 0, 7.5)
	r.FaultEvent("crash", 3)

	return rec
}

func TestTimelineRoundTrip(t *testing.T) {
	want := sampledRecorder().Dump()
	var buf bytes.Buffer
	if err := want.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadRun(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip mismatch:\n got: %+v\nwant: %+v", got, want)
	}
}

// TestTimelineGolden pins the JSONL bytes. The fixture sets every Comm
// field on some rank, so a renamed or mistyped JSON tag changes the
// golden instead of silently dropping a counter.
func TestTimelineGolden(t *testing.T) {
	run := sampledRecorder().Dump()
	ct := reflect.TypeOf(Comm{})
	for i := 0; i < ct.NumField(); i++ {
		set := false
		for _, s := range run.Sessions {
			for _, rk := range s.Ranks {
				set = set || !reflect.ValueOf(rk.Comm).Field(i).IsZero()
			}
		}
		if !set {
			t.Errorf("fixture leaves Comm.%s zero on every rank", ct.Field(i).Name)
		}
	}
	var buf bytes.Buffer
	if err := run.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "timeline_golden.jsonl", buf.Bytes())
}

func TestPromGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := sampledRecorder().Dump().WritePromText(&buf); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "prom_golden.txt", buf.Bytes())
}

func TestHTMLGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := sampledRecorder().Dump().WriteHTMLReport(&buf); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "html_golden.html", buf.Bytes())
}

// TestRenderersReadTheTimeline: every renderer is a pure function of
// the Run, so rendering the live snapshot and the JSONL stream read
// back give identical bytes.
func TestRenderersReadTheTimeline(t *testing.T) {
	live := sampledRecorder().Dump()
	var buf bytes.Buffer
	if err := live.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := ReadRun(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for name, render := range map[string]func(*Run, io.Writer) error{
		"report": func(run *Run, w io.Writer) error { _, err := io.WriteString(w, run.Report().String()); return err },
		"chrome": (*Run).WriteChromeTrace,
		"html":   (*Run).WriteHTMLReport,
		"prom":   (*Run).WritePromText,
	} {
		var a, b bytes.Buffer
		if err := render(live, &a); err != nil {
			t.Fatal(err)
		}
		if err := render(loaded, &b); err != nil {
			t.Fatal(err)
		}
		if a.Len() == 0 || !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Errorf("%s: live and reloaded renderings differ (%d vs %d bytes)", name, a.Len(), b.Len())
		}
	}
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	golden := filepath.Join("testdata", name)
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (regenerate with OBS_UPDATE_GOLDEN=1 go test -run TestRegenerateGolden): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("output differs from %s:\n got: %.2000s\nwant: %.2000s", golden, got, want)
	}
}

// TestExportDeterminism pins byte determinism of every exporter: two
// identical recordings must export identical bytes.
func TestExportDeterminism(t *testing.T) {
	render := func() (jsonl, prom, html string) {
		run := sampledRecorder().Dump()
		var a, b, c bytes.Buffer
		if err := run.WriteJSONL(&a); err != nil {
			t.Fatal(err)
		}
		if err := run.WritePromText(&b); err != nil {
			t.Fatal(err)
		}
		if err := run.WriteHTMLReport(&c); err != nil {
			t.Fatal(err)
		}
		return a.String(), b.String(), c.String()
	}
	j1, p1, h1 := render()
	j2, p2, h2 := render()
	if j1 != j2 {
		t.Error("JSONL export is nondeterministic")
	}
	if p1 != p2 {
		t.Error("Prometheus export is nondeterministic")
	}
	if h1 != h2 {
		t.Error("HTML export is nondeterministic")
	}
}

func TestHTMLStructure(t *testing.T) {
	var buf bytes.Buffer
	if err := sampledRecorder().Dump().WriteHTMLReport(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"<!DOCTYPE html>",
		"lvl5 scale=14",
		"rank x phase",
		"<svg",
		"frontier",
		"sampling grid 100 ns",
		"</html>",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("HTML report missing %q", want)
		}
	}
}

func TestReadRunErrors(t *testing.T) {
	for name, in := range map[string]string{
		"empty":          "",
		"not json":       "nope\n",
		"unknown type":   `{"t":"bogus"}` + "\n",
		"rank first":     `{"t":"rank","s":0,"r":0}` + "\n",
		"span no rank":   `{"t":"session","s":0,"label":"x","ranks":1}` + "\n" + `{"t":"span","s":0,"r":0}` + "\n",
		"bad gauge name": `{"t":"session","s":0,"label":"x","ranks":1}` + "\n" + `{"t":"rank","s":0,"r":0}` + "\n" + `{"t":"gauge","s":0,"r":0,"g":"bogus"}` + "\n",
		"session gap":    `{"t":"session","s":1,"label":"x"}` + "\n",
	} {
		if _, err := ReadRun(strings.NewReader(in)); err == nil {
			t.Errorf("ReadRun(%s) succeeded, want error", name)
		}
	}
}

func TestPhaseHeatmap(t *testing.T) {
	run := sampledRecorder().Dump()
	hm := run.Sessions[0].PhaseHeatmap()
	if len(hm.Rows) != 2 || len(hm.Cols) != int(trace.NumPhases) {
		t.Fatalf("heatmap shape %dx%d", len(hm.Rows), len(hm.Cols))
	}
	// rank 0: td-comp 120 in segment 0 + 50 in segment 1.
	col := -1
	for i, c := range hm.Cols {
		if c == trace.TDComp.String() {
			col = i
		}
	}
	if col < 0 || hm.Cells[0][col] != 170 {
		t.Fatalf("td-comp cell = %g, want 170", hm.Cells[0][col])
	}
	if hm.Max < 170 {
		t.Fatalf("heatmap max = %g", hm.Max)
	}
}

func TestGaugeHeatmapAndCoarsen(t *testing.T) {
	run := sampledRecorder().Dump()
	s := run.Sessions[0]
	hm := s.GaugeHeatmap(GaugeFrontier)
	if hm == nil {
		t.Fatal("no frontier heatmap")
	}
	// Buckets 2 (t=200, v=64) and 2 again for segment-1 sample at
	// session time 250 -> bucket 2: last write wins in fold... the two
	// samples land in different folds only if buckets differ.
	if len(hm.Rows) != 2 {
		t.Fatalf("rows = %d", len(hm.Rows))
	}
	// No samples for this gauge in session 2.
	if run.Sessions[1].GaugeHeatmap(GaugeFrontier) != nil {
		t.Fatal("unsampled session produced a heatmap")
	}

	wide := &Heatmap{
		Cols:  []string{"0", "1", "2", "3", "4"},
		Rows:  []string{"r0"},
		Cells: [][]float64{{1, 2, 3, 4, 5}},
	}
	nar := wide.Coarsen(2)
	if len(nar.Cols) != 2 || nar.Cells[0][0] != 6 || nar.Cells[0][1] != 9 {
		t.Fatalf("coarsened = %+v", nar)
	}
	if got := wide.Coarsen(10); got != wide {
		t.Fatal("Coarsen widened a narrow heatmap")
	}
}
