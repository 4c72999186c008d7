package graph500

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"

	"numabfs/internal/bfs"
	"numabfs/internal/fault"
	"numabfs/internal/obs"
	"numabfs/internal/trace"
)

// TestObsDoesNotChangeResults pins the zero-cost claim: attaching a
// recorder must leave every benchmark number bit-identical.
func TestObsDoesNotChangeResults(t *testing.T) {
	base, err := Run(testConfig(12))
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(12)
	cfg.Obs = obs.NewRecorder()
	traced, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if base.HarmonicTEPS != traced.HarmonicTEPS || base.MeanTimeNs != traced.MeanTimeNs ||
		base.SetupNs != traced.SetupNs {
		t.Fatalf("tracing changed results: %+v vs %+v", base, traced)
	}
	if base.Breakdown != traced.Breakdown {
		t.Fatalf("tracing changed the breakdown: %+v vs %+v", base.Breakdown, traced.Breakdown)
	}
	for i := range base.PerRoot {
		if base.PerRoot[i].TimeNs != traced.PerRoot[i].TimeNs {
			t.Fatalf("root %d: TimeNs %g vs %g", i,
				base.PerRoot[i].TimeNs, traced.PerRoot[i].TimeNs)
		}
	}
}

// TestObsReportMatchesBreakdown checks the two independent accountings
// of the same run against each other: the span stream, aggregated by
// the report, must reproduce the hand-maintained trace.Breakdown.
func TestObsReportMatchesBreakdown(t *testing.T) {
	cfg := testConfig(12)
	cfg.Obs = obs.NewRecorder()
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep := cfg.Obs.Dump().Report()
	if len(rep.Sessions) != 1 {
		t.Fatalf("sessions = %d", len(rep.Sessions))
	}
	sr := rep.Sessions[0]
	ranks := cfg.Machine.Nodes * cfg.Machine.SocketsPerNode
	if sr.Ranks != ranks {
		t.Fatalf("ranks = %d, want %d", sr.Ranks, ranks)
	}
	// PhaseNs is summed over roots; Result.Breakdown is the per-root
	// mean. The two sum float sequences in different orders (and span
	// endpoints round through the clock), so compare with a relative
	// tolerance.
	roots := float64(cfg.NumRoots)
	for p := trace.Phase(0); p < trace.NumPhases; p++ {
		got := sr.PhaseNs[p.String()] / roots
		want := res.Breakdown.Ns[p]
		if math.Abs(got-want) > 1e-6*(math.Abs(want)+1) {
			t.Errorf("%s: report %g, breakdown %g", p, got, want)
		}
	}
	// Every level of the deepest traversal must appear in the
	// critical-path table, each with a bounding rank and phase.
	maxLevels := 0
	for _, rr := range res.PerRoot {
		if rr.Levels > maxLevels {
			maxLevels = rr.Levels
		}
	}
	if len(sr.Levels) != maxLevels {
		t.Fatalf("critical-path rows = %d, want %d", len(sr.Levels), maxLevels)
	}
	for _, l := range sr.Levels {
		if l.BoundRank < 0 || l.BoundRank >= ranks {
			t.Errorf("level %d: bound rank %d out of range", l.Level, l.BoundRank)
		}
		if l.BoundPhase == "" {
			t.Errorf("level %d: no bound phase", l.Level)
		}
		if l.MeanNs <= 0 {
			t.Errorf("level %d: mean %g", l.Level, l.MeanNs)
		}
	}
	// The simulator's invariant: multi-rank BFS moves real bytes.
	var msgs int64
	for _, n := range sr.Msgs {
		msgs += n
	}
	if msgs == 0 {
		t.Fatal("no point-to-point messages counted")
	}
	if sr.BarrierCount == 0 {
		t.Fatal("no barrier waits counted")
	}
}

// TestObsTraceDeterministicAcrossRuns pins the exporter's end-to-end
// determinism: two identically seeded benchmark runs must export
// byte-identical timelines, whose Chrome rendering has one named track
// per rank and a phase span for every phase of every level.
func TestObsTraceDeterministicAcrossRuns(t *testing.T) {
	runTrace := func() (*obs.Run, []byte, *Result) {
		cfg := testConfig(12)
		cfg.Obs = obs.NewRecorder()
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		run := cfg.Obs.Dump()
		var tl bytes.Buffer
		if err := run.WriteJSONL(&tl); err != nil {
			t.Fatal(err)
		}
		return run, tl.Bytes(), res
	}
	run, tlA, res := runTrace()
	_, tlB, _ := runTrace()
	if !bytes.Equal(tlA, tlB) {
		t.Fatal("same-seed runs exported different timeline bytes")
	}
	a, err := run.ChromeTraceJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !json.Valid(a) {
		t.Fatal("invalid trace JSON")
	}

	var tr struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Cat  string         `json:"cat"`
			Ph   string         `json:"ph"`
			Tid  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(a, &tr); err != nil {
		t.Fatal(err)
	}
	ranks := testConfig(12).Machine.Nodes * testConfig(12).Machine.SocketsPerNode
	tracks := 0
	levelPhases := make(map[int]map[string]bool)
	for _, e := range tr.TraceEvents {
		if e.Ph == "M" && e.Name == "thread_name" {
			tracks++
		}
		if e.Ph == "X" && e.Cat == obs.CatPhase {
			lv := int(e.Args["level"].(float64))
			if levelPhases[lv] == nil {
				levelPhases[lv] = make(map[string]bool)
			}
			levelPhases[lv][e.Name] = true
		}
	}
	if tracks != ranks {
		t.Fatalf("named tracks = %d, want one per rank (%d)", tracks, ranks)
	}
	maxLevels := 0
	for _, rr := range res.PerRoot {
		if rr.Levels > maxLevels {
			maxLevels = rr.Levels
		}
	}
	for lv := 1; lv <= maxLevels; lv++ {
		if len(levelPhases[lv]) == 0 {
			t.Errorf("level %d has no phase spans", lv)
		}
	}
	// Both computation and communication phases must be represented
	// somewhere in the trace.
	all := make(map[string]bool)
	for _, m := range levelPhases {
		for name := range m {
			all[name] = true
		}
	}
	for _, p := range []trace.Phase{trace.TDComp, trace.TDComm, trace.BUComp, trace.BUComm} {
		if !all[p.String()] {
			t.Errorf("no %s spans in trace", p)
		}
	}
}

// TestObsBoundRankIsPlantedStraggler: a rank whose computation runs 4x
// slow arrives last at every level's barrier, so the report's critical
// path must run through it at every level that stalls — not through
// whichever rank an iteration-order tie-break happens to name. The run
// is bottom-up only: there every rank scans its unvisited vertices
// before the barrier, while a top-down level does its receive-side
// work after it, where a rank with nothing to send arrives on time.
func TestObsBoundRankIsPlantedStraggler(t *testing.T) {
	const straggler = 5
	cfg := testConfig(12)
	cfg.Opts.Mode = bfs.ModeBottomUp
	cfg.Obs = obs.NewRecorder()
	cfg.Faults = &fault.Plan{Stragglers: []fault.Straggler{{Rank: straggler, Factor: 4}}}
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	run := cfg.Obs.Dump()
	stalls := make(map[int]bool)
	for _, rk := range run.Sessions[0].Ranks {
		for _, sp := range rk.Spans {
			if sp.Cat == obs.CatPhase && sp.Name == trace.Stall.String() {
				stalls[sp.Level] = true
			}
		}
	}
	checked := 0
	for _, l := range run.Report().Sessions[0].Levels {
		if !stalls[l.Level] {
			continue
		}
		checked++
		if l.BoundRank != straggler {
			t.Errorf("level %d: bound rank %d, want the straggler %d", l.Level, l.BoundRank, straggler)
		}
	}
	if checked < 3 {
		t.Fatalf("only %d levels stalled; the check needs a deeper traversal", checked)
	}
}
