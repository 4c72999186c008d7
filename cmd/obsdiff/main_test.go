package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"numabfs/internal/obs"
	"numabfs/internal/trace"
)

// writeRun exports a tiny one-session recording with the given td-comp
// duration to a JSONL file and returns its path.
func writeRun(t *testing.T, dir, name string, tdComp float64) string {
	t.Helper()
	rec := obs.NewRecorder()
	s := rec.NewSession("cfg")
	rk := s.AddRank(0, 0, 0)
	rk.PhaseSpan(trace.TDComp, 0, 0, tdComp)
	path := filepath.Join(dir, name)
	if err := rec.WriteTimelineFile(path); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunTextAndJSON(t *testing.T) {
	dir := t.TempDir()
	a := writeRun(t, dir, "a.jsonl", 100)
	b := writeRun(t, dir, "b.jsonl", 70)

	var out, errOut bytes.Buffer
	if code := run([]string{a, b}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut.String())
	}
	text := out.String()
	if !strings.Contains(text, "td-comp") || !strings.Contains(text, "-0.0000") {
		t.Errorf("text output:\n%s", text)
	}

	out.Reset()
	if code := run([]string{"-json", a, b}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut.String())
	}
	var d obs.RunDiff
	if err := json.Unmarshal(out.Bytes(), &d); err != nil {
		t.Fatalf("json output: %v", err)
	}
	if len(d.Sessions) != 1 || d.Sessions[0].DeltaNs != -30 {
		t.Fatalf("diff = %+v", d)
	}
}

func TestRunUsageErrors(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run(nil, &out, &errOut); code != 2 {
		t.Fatalf("no args: exit %d", code)
	}
	if code := run([]string{"one.jsonl"}, &out, &errOut); code != 2 {
		t.Fatalf("one arg: exit %d", code)
	}
	if code := run([]string{"-bogus", "a", "b"}, &out, &errOut); code != 2 {
		t.Fatalf("bad flag: exit %d", code)
	}
}

// writeSampledRun exports a fixed two-rank recording with a level, a
// barrier stall, comm counters and gauges — enough to exercise every
// renderer — and returns its path.
func writeSampledRun(t *testing.T, dir string) string {
	t.Helper()
	rec := obs.NewRecorder()
	s := rec.NewSession("lvl6 scale=12")
	s.EnableSampling(100)
	s.SetLinkPeak(2)
	for i, compNs := range []float64{120, 80} {
		rk := s.AddRank(i, 0, i)
		rk.PhaseSpan(trace.BUComp, 1, 0, compNs)
		rk.PhaseSpan(trace.Stall, 1, compNs, 150)
		rk.PhaseSpan(trace.BUComm, 1, 150, 180)
		rk.LevelSpan(true, 1, 0, 180)
		rk.Collective("allgather-pipelined", 150, 180)
		rk.CountMsg(obs.HopInterNode, 256, 512)
		rk.BarrierWait(150 - compNs)
		rk.Overlap(20, 10)
		rk.Sample(obs.GaugeFrontier, 180, 40)
		rk.LinkTransfer(true, 256, 150, 180)
	}
	s.Advance(180)
	path := filepath.Join(dir, "run.jsonl")
	if err := rec.WriteTimelineFile(path); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestRunRenderers: each subcommand's output is exactly the in-package
// renderer applied to the timeline read back.
func TestRunRenderers(t *testing.T) {
	path := writeSampledRun(t, t.TempDir())
	r, err := obs.ReadRunFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for name, render := range renderers {
		var want bytes.Buffer
		if err := render(r, &want); err != nil {
			t.Fatal(err)
		}
		var out, errOut bytes.Buffer
		if code := run([]string{name, path}, &out, &errOut); code != 0 {
			t.Fatalf("%s: exit %d, stderr: %s", name, code, errOut.String())
		}
		if out.Len() == 0 || !bytes.Equal(out.Bytes(), want.Bytes()) {
			t.Errorf("%s: output differs from the renderer (%d vs %d bytes)", name, out.Len(), want.Len())
		}
	}
	// The report subcommand is the text the CLIs' -metrics prints.
	var out, errOut bytes.Buffer
	run([]string{"report", path}, &out, &errOut)
	if !strings.HasPrefix(out.String(), "== lvl6 scale=12 (2 ranks) ==") ||
		!strings.Contains(out.String(), "critical path by level") {
		t.Errorf("report output:\n%s", out.String())
	}
}

func TestRunRenderUsageErrors(t *testing.T) {
	path := writeSampledRun(t, t.TempDir())
	for _, args := range [][]string{
		{"bogus", path},           // unknown subcommand
		{"report"},                // missing argument
		{"chrome", path, path},    // extra argument
		{"-json", "prom", path},   // -json only applies to the diff
		{"flamegraph", "x.jsonl"}, // unknown even with a missing file
	} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
		if out.Len() != 0 {
			t.Errorf("%v: wrote to stdout on a usage error", args)
		}
	}
}

func TestRunRenderUnreadable(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.jsonl")
	if err := os.WriteFile(bad, []byte("not json\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{filepath.Join(dir, "nope.jsonl"), bad} {
		var out, errOut bytes.Buffer
		if code := run([]string{"html", path}, &out, &errOut); code != 1 {
			t.Errorf("%s: exit %d, want 1", path, code)
		}
		if !strings.Contains(errOut.String(), filepath.Base(path)) {
			t.Errorf("error does not name the file: %s", errOut.String())
		}
	}
}

func TestRunMissingFile(t *testing.T) {
	dir := t.TempDir()
	a := writeRun(t, dir, "a.jsonl", 100)
	var out, errOut bytes.Buffer
	if code := run([]string{a, filepath.Join(dir, "nope.jsonl")}, &out, &errOut); code != 1 {
		t.Fatalf("missing file: exit %d", code)
	}
	// Corrupt input also fails cleanly.
	bad := filepath.Join(dir, "bad.jsonl")
	if err := os.WriteFile(bad, []byte("not json\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	errOut.Reset()
	if code := run([]string{a, bad}, &out, &errOut); code != 1 {
		t.Fatalf("corrupt file: exit %d", code)
	}
	if !strings.Contains(errOut.String(), "bad.jsonl") {
		t.Errorf("error does not name the file: %s", errOut.String())
	}
}
