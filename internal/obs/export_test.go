package obs

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"slices"
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

// TestReadRunRejectsWhatReadersMisread: a rank whose id is not its
// index (the readers index per-rank tables by id, and the report
// panicked on it) and a phase span that names no trace phase (counted
// by the report but dropped by every other reader) are line-numbered
// errors.
func TestReadRunRejectsWhatReadersMisread(t *testing.T) {
	const head = `{"t":"session","s":0,"label":"x","ranks":1}` + "\n"
	for name, tc := range map[string]struct{ in, want string }{
		"rank id": {
			head + `{"t":"rank","s":0,"r":0,"id":5,"node":0,"socket":0}` + "\n" +
				`{"t":"span","s":0,"r":0,"name":"stall","cat":"phase","level":0,"start":0,"end":10}` + "\n",
			"line 2: rank 0 has id 5",
		},
		"phase name": {
			head + `{"t":"rank","s":0,"r":0,"id":0,"node":0,"socket":0}` + "\n" +
				`{"t":"span","s":0,"r":0,"name":"bogus","cat":"phase","level":0,"start":0,"end":10}` + "\n",
			`line 3: phase span names no phase: "bogus"`,
		},
	} {
		_, err := ReadRun(strings.NewReader(tc.in))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want %q", name, err, tc.want)
		}
	}
}

func TestPhaseHeatmap(t *testing.T) {
	run := sampledRecorder().Dump()
	hm := run.Sessions[0].fold().phaseHeatmap()
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

// TestHeatmapUnsortedGaugeBuckets: a hand-written timeline may list a
// rank's gauge buckets out of order. The heatmap spans every bucket any
// rank sampled rather than indexing past a row.
func TestHeatmapUnsortedGaugeBuckets(t *testing.T) {
	s := &RunSession{Label: "x", BucketNs: 100, Ranks: []*RunRank{{ID: 0}, {ID: 1, Socket: 1}}}
	s.Ranks[0].Gauges[GaugeInterBytes] = []GaugePoint{{Bucket: 5, V: 1}, {Bucket: 20, V: 2}}
	s.Ranks[1].Gauges[GaugeInterBytes] = []GaugePoint{{Bucket: 30, V: 3}, {Bucket: 1, V: 4}}
	var buf bytes.Buffer
	if err := (&Run{Sessions: []*RunSession{s}}).WriteHTMLReport(&buf); err != nil {
		t.Fatal(err)
	}
	hm := s.fold().gaugeHeatmap(GaugeInterBytes, 64)
	if len(hm.Cols) != 30 || hm.Cells[1][0] != 4 || hm.Cells[1][29] != 3 || hm.Max != 4 {
		t.Fatalf("heatmap %d cols, rank 1 row %v, max %g", len(hm.Cols), hm.Cells[1], hm.Max)
	}
}

func TestGaugeHeatmapAndCoarsen(t *testing.T) {
	run := sampledRecorder().Dump()
	s := run.Sessions[0]
	hm := s.fold().gaugeHeatmap(GaugeFrontier, 24)
	if hm == nil {
		t.Fatal("no frontier heatmap")
	}
	if len(hm.Rows) != 2 {
		t.Fatalf("rows = %d", len(hm.Rows))
	}
	// No samples for this gauge in session 2.
	if run.Sessions[1].fold().gaugeHeatmap(GaugeFrontier, 24) != nil {
		t.Fatal("unsampled session produced a heatmap")
	}

	// Five buckets into two columns: groups of ceil(5/2) = 3 buckets,
	// each labelled by its first bucket's time and summing its cells.
	// Rank 1 lists a bucket twice, out of order: the later value is the
	// bucket's, as it would be in a row indexed by bucket.
	five := &RunSession{Label: "x", BucketNs: 100, Ranks: []*RunRank{{ID: 0}, {ID: 1}}}
	for b := int64(0); b < 5; b++ {
		five.Ranks[0].Gauges[GaugeFrontier] = append(five.Ranks[0].Gauges[GaugeFrontier], GaugePoint{Bucket: b, V: float64(b + 1)})
	}
	five.Ranks[1].Gauges[GaugeFrontier] = []GaugePoint{{Bucket: 4, V: 7}, {Bucket: 1, V: 9}, {Bucket: 4, V: 2}}
	nar := five.fold().gaugeHeatmap(GaugeFrontier, 2)
	if !slices.Equal(nar.Cols, []string{"0", "300"}) ||
		!slices.Equal(nar.Cells[0], []float64{6, 9}) || !slices.Equal(nar.Cells[1], []float64{9, 2}) || nar.Max != 9 {
		t.Fatalf("coarsened = %+v", nar)
	}
	if wide := five.fold().gaugeHeatmap(GaugeFrontier, 10); len(wide.Cols) != 5 || !slices.Equal(wide.Cells[0], []float64{1, 2, 3, 4, 5}) {
		t.Fatalf("a span within the column budget was coarsened: %+v", wide)
	}
}

// TestHTMLReportAllocsFollowSamples: the HTML report's gauge heatmap sums
// points into at most 24 columns, so a two-point timeline whose buckets
// lie 2^20 apart renders with the allocations of one whose buckets lie
// 2^10 apart (both fill the 24 columns), and within those columns'
// labels and cells of one whose buckets lie 10 apart (11 columns) — not
// with a column per bucket between them.
func TestHTMLReportAllocsFollowSamples(t *testing.T) {
	allocs := func(span int64) float64 {
		s := &RunSession{Label: "x", BucketNs: 100, Ranks: []*RunRank{{ID: 0}}}
		s.Ranks[0].Gauges[GaugeInterBytes] = []GaugePoint{{Bucket: 0, V: 1}, {Bucket: span, V: 2}}
		run := &Run{Sessions: []*RunSession{s}}
		return testing.AllocsPerRun(3, func() {
			if err := run.WriteHTMLReport(io.Discard); err != nil {
				t.Fatal(err)
			}
		})
	}
	near, mid, far := allocs(10), allocs(1<<10), allocs(1<<20)
	if far > mid+2 || far > near+13*8 {
		t.Errorf("span 2^20 renders with %v allocations, span 2^10 with %v, span 10 with %v", far, mid, near)
	}
}
