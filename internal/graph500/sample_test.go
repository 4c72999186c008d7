package graph500

import (
	"bytes"
	"math"
	"runtime"
	"testing"

	"numabfs/internal/bfs"
	"numabfs/internal/obs"
	"numabfs/internal/trace"
)

// sampledConfig returns the benchmark configuration the acceptance
// tests below run with the virtual-time gauge grid enabled.
func sampledConfig(scale int, opt bfs.Opt) Config {
	cfg := testConfig(scale)
	cfg.Opts.Opt = opt
	cfg.Obs = obs.NewRecorder()
	cfg.SampleNs = 50_000
	return cfg
}

// TestSamplingDoesNotChangeResults pins the tentpole contract: turning
// on gauge sampling must leave every benchmark number bit-identical,
// because recording only reads clocks.
func TestSamplingDoesNotChangeResults(t *testing.T) {
	base, err := Run(testConfig(12))
	if err != nil {
		t.Fatal(err)
	}
	cfg := sampledConfig(12, bfs.DefaultOptions().Opt)
	sampled, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if base.HarmonicTEPS != sampled.HarmonicTEPS || base.MeanTimeNs != sampled.MeanTimeNs ||
		base.SetupNs != sampled.SetupNs {
		t.Fatalf("sampling changed results: %+v vs %+v", base, sampled)
	}
	if base.Breakdown != sampled.Breakdown {
		t.Fatalf("sampling changed the breakdown: %+v vs %+v", base.Breakdown, sampled.Breakdown)
	}
	for i := range base.PerRoot {
		if base.PerRoot[i].TimeNs != sampled.PerRoot[i].TimeNs {
			t.Fatalf("root %d: TimeNs %g vs %g", i,
				base.PerRoot[i].TimeNs, sampled.PerRoot[i].TimeNs)
		}
	}
	// And the run must actually have recorded gauges: a zero-cost
	// sampler that samples nothing would pass the identity trivially.
	sess := cfg.Obs.Dump().Sessions[0]
	if sess.BucketNs != cfg.SampleNs {
		t.Fatalf("session grid %g ns, want SampleNs %g", sess.BucketNs, cfg.SampleNs)
	}
	frontier := false
	for _, rk := range sess.Ranks {
		if len(rk.Gauges[obs.GaugeFrontier]) > 0 {
			frontier = true
		}
	}
	if !frontier {
		t.Fatal("no frontier gauge samples recorded")
	}
	if sess.LinkPeak <= 0 {
		t.Fatal("world did not publish the link peak")
	}
}

// TestObsdiffOverlapAcceptance is the issue's acceptance criterion:
// with sampling on, an obsdiff of a level-5 (compressed allgather) run
// against a level-6 (overlapped allgather) run must reproduce the
// overlap ledger — hidden and exposed transfer time — that the
// benchmark's own breakdown reports, within 1e-9 relative tolerance.
func TestObsdiffOverlapAcceptance(t *testing.T) {
	runLevel := func(opt bfs.Opt) (*Result, *obs.Run) {
		cfg := sampledConfig(12, opt)
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res, cfg.Obs.Dump()
	}
	resC, runC := runLevel(bfs.OptCompressedAllgather)
	resO, runO := runLevel(bfs.OptOverlapAllgather)

	d := obs.DiffRuns(runC, runO)
	if len(d.Sessions) != 1 || len(d.AOnly) != 0 || len(d.BOnly) != 0 {
		t.Fatalf("diff shape: %d paired, %d a-only, %d b-only",
			len(d.Sessions), len(d.AOnly), len(d.BOnly))
	}
	sd := d.Sessions[0]

	// Result.Breakdown is the mean over ranks and roots; the diff's
	// overlap ledger is the total over ranks (summed over roots), so the
	// scale factor between them is ranks*roots.
	cfg := testConfig(12)
	factor := float64(cfg.Machine.Nodes*cfg.Machine.SocketsPerNode) * float64(cfg.NumRoots)
	relClose := func(got, want float64) bool {
		return math.Abs(got-want) <= 1e-9*math.Max(math.Abs(want), 1)
	}
	if want := resO.Breakdown.Ns[trace.Overlap] * factor; !relClose(sd.OverlapHiddenBNs, want) {
		t.Errorf("hidden (B): diff %g, breakdown*%g = %g", sd.OverlapHiddenBNs, factor, want)
	}
	if want := resO.Breakdown.OverlapExposedNs * factor; !relClose(sd.OverlapExposedBNs, want) {
		t.Errorf("exposed (B): diff %g, breakdown*%g = %g", sd.OverlapExposedBNs, factor, want)
	}
	if want := resC.Breakdown.Ns[trace.Overlap] * factor; !relClose(sd.OverlapHiddenANs, want) {
		t.Errorf("hidden (A): diff %g, breakdown*%g = %g", sd.OverlapHiddenANs, factor, want)
	}
	if want := resC.Breakdown.OverlapExposedNs * factor; !relClose(sd.OverlapExposedANs, want) {
		t.Errorf("exposed (A): diff %g, breakdown*%g = %g", sd.OverlapExposedANs, factor, want)
	}
	// Level 6 must actually pipeline: it hides transfer time level 5
	// spends exposed, and the diff attributes a bu-comm reduction.
	if sd.OverlapHiddenBNs <= sd.OverlapHiddenANs {
		t.Errorf("overlap level hides %g ns, compressed %g ns — no pipelining visible",
			sd.OverlapHiddenBNs, sd.OverlapHiddenANs)
	}
	var buComm *obs.PhaseDelta
	for i := range sd.Phases {
		if sd.Phases[i].Name == trace.BUComm.String() {
			buComm = &sd.Phases[i]
		}
	}
	if buComm == nil {
		t.Fatal("bu-comm missing from the phase delta table")
	}
	if buComm.DeltaNs >= 0 {
		t.Errorf("bu-comm delta %g ns not negative: pipelining did not reduce exposed comm", buComm.DeltaNs)
	}
}

// TestExportsByteIdenticalAcrossRepeats pins end-to-end export
// determinism on a real benchmark: identically configured runs,
// executed under different GOMAXPROCS, must produce byte-identical
// timeline JSONL — and with it every renderer, each a pure function of
// the timeline.
func TestExportsByteIdenticalAcrossRepeats(t *testing.T) {
	export := func() []byte {
		cfg := sampledConfig(12, bfs.OptOverlapAllgather)
		if _, err := Run(cfg); err != nil {
			t.Fatal(err)
		}
		var tl bytes.Buffer
		if err := cfg.Obs.Dump().WriteJSONL(&tl); err != nil {
			t.Fatal(err)
		}
		return tl.Bytes()
	}
	tl1 := export()
	old := runtime.GOMAXPROCS(1)
	tl2 := export()
	runtime.GOMAXPROCS(old)
	tl3 := export()

	if len(tl1) == 0 {
		t.Fatal("empty export")
	}
	if !bytes.Equal(tl1, tl2) {
		t.Error("timeline differs under GOMAXPROCS=1")
	}
	if !bytes.Equal(tl1, tl3) {
		t.Error("timeline differs across repeats")
	}

	// The JSONL stream round-trips: a reloaded run diffed against the
	// live recording is all zeros.
	run, err := obs.ReadRun(bytes.NewReader(tl1))
	if err != nil {
		t.Fatal(err)
	}
	cfg := sampledConfig(12, bfs.OptOverlapAllgather)
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	d := obs.DiffRuns(cfg.Obs.Dump(), run)
	for _, sd := range d.Sessions {
		if sd.DeltaNs != 0 {
			t.Errorf("session %q: reloaded run drifts by %g ns", sd.LabelA, sd.DeltaNs)
		}
	}
}
