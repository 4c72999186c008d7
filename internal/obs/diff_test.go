package obs

import (
	"encoding/json"
	"strings"
	"testing"

	"numabfs/internal/trace"
)

// diffPair builds two fixed single-session runs with known phase and
// rank deltas.
func diffPair() (*Run, *Run) {
	mk := func(tdComp0, tdComp1, stall1, hidden, exposed float64) *Run {
		rec := NewRecorder()
		s := rec.NewSession("lvl")
		r0 := s.AddRank(0, 0, 0)
		r1 := s.AddRank(1, 0, 1)
		r0.PhaseSpan(trace.TDComp, 0, 0, tdComp0)
		r1.PhaseSpan(trace.TDComp, 0, 0, tdComp1)
		r1.PhaseSpan(trace.Stall, 0, tdComp1, tdComp1+stall1)
		r1.Overlap(hidden, exposed)
		r0.CountMsg(HopInterNode, 1000, 1000)
		return rec.Dump()
	}
	// A: 100+80 td-comp, 40 stall; B: 90+70 td-comp, 10 stall.
	return mk(100, 80, 40, 10, 30), mk(90, 70, 10, 35, 5)
}

// shiftedRecorder is the diff golden's candidate against
// sampledRecorder: its first session moves phase time between phases,
// adds a third rank and a fourth with no phase spans, and changes the
// wire bytes; its third session has no baseline partner.
func shiftedRecorder() *Recorder {
	rec := NewRecorder()

	s := rec.NewSession("lvl6 scale=14")
	r0 := s.AddRank(0, 0, 0)
	r1 := s.AddRank(1, 0, 1)
	r2 := s.AddRank(2, 1, 0)
	r3 := s.AddRank(3, 1, 1)
	r0.PhaseSpan(trace.TDComp, 0, 0, 100)
	r0.PhaseSpan(trace.TDComm, 0, 100, 130)
	r0.PhaseSpan(trace.Overlap, 0, 130, 145.5)
	r1.PhaseSpan(trace.BUComp, 0, 0, 95)
	r1.PhaseSpan(trace.BUComm, 0, 95, 140)
	r1.PhaseSpan(trace.Stall, 0, 140, 150)
	r1.Overlap(70, 5)
	r2.PhaseSpan(trace.BUComp, 0, 0, 60.25)
	r2.PhaseSpan(trace.Stall, 0, 60.25, 150)
	r0.CountMsg(HopInterNode, 300, 800)
	r1.CountMsg(HopIntraNode, 128, 128)
	r3.CountMsg(HopIntraSocket, 64, 64)

	s2 := rec.NewSession("plain")
	r := s2.AddRank(0, 1, 2)
	r.PhaseSpan(trace.Switch, 2, 0, 7.5)

	rec.NewSession("extra").AddRank(0, 0, 0).PhaseSpan(trace.Reown, 0, 0, 3)
	return rec
}

func TestDiffGolden(t *testing.T) {
	d := DiffRuns(sampledRecorder().Dump(), shiftedRecorder().Dump())
	checkGolden(t, "diff_golden.txt", []byte(d.String()))
	j, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "diff_golden.json", append(j, '\n'))
}

func TestDiffRuns(t *testing.T) {
	a, b := diffPair()
	d := DiffRuns(a, b)
	if len(d.Sessions) != 1 {
		t.Fatalf("sessions = %d", len(d.Sessions))
	}
	sd := d.Sessions[0]
	if sd.TotalANs != 220 || sd.TotalBNs != 170 || sd.DeltaNs != -50 {
		t.Fatalf("totals A=%g B=%g delta=%g", sd.TotalANs, sd.TotalBNs, sd.DeltaNs)
	}
	// Biggest mover first: stall moved -30, td-comp -20.
	if len(sd.Phases) != 2 || sd.Phases[0].Name != "stall" || sd.Phases[0].DeltaNs != -30 {
		t.Fatalf("phases = %+v", sd.Phases)
	}
	if sd.Phases[1].Name != "td-comp" || sd.Phases[1].DeltaNs != -20 {
		t.Fatalf("phases = %+v", sd.Phases)
	}
	// Rank attribution: rank 0 -10, rank 1 -40.
	if len(sd.Ranks) != 2 || sd.Ranks[0].DeltaNs != -10 || sd.Ranks[1].DeltaNs != -40 {
		t.Fatalf("ranks = %+v", sd.Ranks)
	}
	if sd.OverlapHiddenANs != 10 || sd.OverlapHiddenBNs != 35 ||
		sd.OverlapExposedANs != 30 || sd.OverlapExposedBNs != 5 {
		t.Fatalf("overlap = %+v", sd)
	}
	if sd.BytesA[HopInterNode] != 1000 || sd.BytesB[HopInterNode] != 1000 {
		t.Fatalf("bytes = %v %v", sd.BytesA, sd.BytesB)
	}
}

func TestDiffUnpairedSessions(t *testing.T) {
	a, b := diffPair()
	rec := NewRecorder()
	rec.NewSession("extra")
	b.Sessions = append(b.Sessions, rec.Dump().Sessions...)
	d := DiffRuns(a, b)
	if len(d.Sessions) != 1 || len(d.BOnly) != 1 || d.BOnly[0] != "extra" {
		t.Fatalf("diff = %+v", d)
	}
	if len(d.AOnly) != 0 {
		t.Fatalf("AOnly = %v", d.AOnly)
	}
}

// TestDiffDeterminism pins that text and JSON renderings are identical
// across repeats.
func TestDiffDeterminism(t *testing.T) {
	render := func() (string, string) {
		a, b := diffPair()
		d := DiffRuns(a, b)
		j, err := json.Marshal(d)
		if err != nil {
			t.Fatal(err)
		}
		return d.String(), string(j)
	}
	t1, j1 := render()
	t2, j2 := render()
	if t1 != t2 || j1 != j2 {
		t.Fatal("diff rendering is nondeterministic")
	}
}

func TestDiffText(t *testing.T) {
	a, b := diffPair()
	out := DiffRuns(a, b).String()
	for _, want := range []string{
		"== lvl -> lvl ==",
		"total rank-time:",
		"stall",
		"td-comp",
		"overlap hidden:",
		"inter-node bytes: 1000 -> 1000 (+0)",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("diff text missing %q in:\n%s", want, out)
		}
	}
}

// TestDiffIdentity: diffing a run against itself is all zeros.
func TestDiffIdentity(t *testing.T) {
	run := sampledRecorder().Dump()
	d := DiffRuns(run, run)
	for _, sd := range d.Sessions {
		if sd.DeltaNs != 0 {
			t.Fatalf("self-diff delta = %g", sd.DeltaNs)
		}
		for _, p := range sd.Phases {
			if p.DeltaNs != 0 {
				t.Fatalf("self-diff phase %s delta = %g", p.Name, p.DeltaNs)
			}
		}
		for _, r := range sd.Ranks {
			if r.DeltaNs != 0 {
				t.Fatalf("self-diff rank %d delta = %g", r.Rank, r.DeltaNs)
			}
		}
	}
}
