package bfs2d

// Acceptance tests giving the 2-D engine the same guarantees the 1-D
// engine's determinism/loss/fault suites pin down: bit-identical
// results across repeats and host core counts (including through the
// hybrid ladder, wire compression, lossy links and crash recovery), an
// empty plan as an exact identity, and loss/crash plans that perturb
// only time, never the traversal.

import (
	"bytes"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"

	"numabfs/internal/fault"
	"numabfs/internal/graph"
	"numabfs/internal/machine"
	"numabfs/internal/obs"
	"numabfs/internal/rmat"
	"numabfs/internal/trace"
	"numabfs/internal/wire"
)

// signature2d compresses everything a RootResult guarantees to be
// deterministic, plus the full parent array, into one comparable
// string — the 2-D analogue of the 1-D suite's signature().
func signature2d(r *Runner, res RootResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "t=%x bd=%x e=%d v=%d lv=%d",
		res.TimeNs, res.Breakdown.Total(), res.TraversedEdges, res.Visited, res.Levels)
	for _, ls := range res.LevelStats {
		fmt.Fprintf(&b, " %d/%d/%v/%x", ls.NF, ls.MF, ls.BottomUp, ls.Ns)
	}
	for _, p := range r.Parents() {
		fmt.Fprintf(&b, ",%d", p)
	}
	return b.String()
}

func runWithPlan2D(t *testing.T, mode Mode, compress bool, plan *fault.Plan) (*Runner, RootResult) {
	t.Helper()
	const scale = 12
	params := rmat.Graph500(scale)
	r := setUp(t, testConfig(scale, 2, 4), Grid{R: 2, C: 4}, params, 0, mode, compress)
	if plan != nil {
		if err := r.InjectFaults(*plan); err != nil {
			t.Fatal(err)
		}
	}
	root := params.Roots(1, r.HasEdgeGlobal)[0]
	return r, r.RunRoot(root)
}

// TestBFS2DDeterministicAcrossHostParallelism: virtual time, breakdown,
// level stats and parent trees must be bit-identical across host core
// counts for every rung of the 2-D ladder.
func TestBFS2DDeterministicAcrossHostParallelism(t *testing.T) {
	for _, c := range []struct {
		mode     Mode
		compress bool
	}{
		{ModeTopDown, false},
		{ModeHybrid, false},
		{ModeHybrid, true},
		{ModeBottomUp, true},
	} {
		t.Run(fmt.Sprintf("%s-compress=%v", c.mode, c.compress), func(t *testing.T) {
			run := func() string {
				r, res := runWithPlan2D(t, c.mode, c.compress, nil)
				return signature2d(r, res)
			}
			prev := runtime.GOMAXPROCS(1)
			s1 := run()
			repeat := run()
			runtime.GOMAXPROCS(4)
			s4 := run()
			runtime.GOMAXPROCS(prev)
			if s1 != repeat {
				t.Fatalf("2-D run not repeatable:\n%.160s...\n%.160s...", s1, repeat)
			}
			if s1 != s4 {
				t.Fatalf("host parallelism leaked into 2-D results:\nGOMAXPROCS=1 %.160s...\nGOMAXPROCS=4 %.160s...", s1, s4)
			}
		})
	}
}

// TestBFS2DDeterministicWithTracing: recording must neither perturb the
// hybrid engine's virtual time nor itself depend on host scheduling.
func TestBFS2DDeterministicWithTracing(t *testing.T) {
	const scale = 12
	params := rmat.Graph500(scale)
	run := func() (string, []byte) {
		r, err := NewRunner(testConfig(scale, 2, 4), machine.PPN8Bind, Grid{R: 2, C: 4}, params)
		if err != nil {
			t.Fatal(err)
		}
		r.Mode = ModeHybrid
		rec := obs.NewRecorder()
		sess := rec.NewSession("2d determinism")
		sess.EnableSampling(obs.DefaultSampleNs)
		r.AttachObs(sess)
		r.Setup()
		root := params.Roots(1, r.HasEdgeGlobal)[0]
		res := r.RunRoot(root)
		var tl bytes.Buffer
		if err := rec.Dump().WriteJSONL(&tl); err != nil {
			t.Fatal(err)
		}
		return signature2d(r, res), tl.Bytes()
	}
	prev := runtime.GOMAXPROCS(1)
	s1, d1 := run()
	runtime.GOMAXPROCS(4)
	s4, d4 := run()
	runtime.GOMAXPROCS(prev)
	if s1 != s4 {
		t.Fatalf("results differ under tracing:\n%.160s...\n%.160s...", s1, s4)
	}
	if string(d1) != string(d4) {
		t.Fatal("2-D timeline bytes depend on host parallelism")
	}

	r, res := runWithPlan2D(t, ModeHybrid, false, nil)
	if got := signature2d(r, res); got != s1 {
		t.Fatalf("tracing changed 2-D results:\nuntraced %.160s...\ntraced   %.160s...", got, s1)
	}
}

// TestBFS2DEmptyPlanIsExactIdentity: a zero-value plan must leave every
// output bit-identical to a run with no injector call at all.
func TestBFS2DEmptyPlanIsExactIdentity(t *testing.T) {
	rBase, base := runWithPlan2D(t, ModeHybrid, false, nil)
	rPlan, withPlan := runWithPlan2D(t, ModeHybrid, false, &fault.Plan{})
	if sb, sp := signature2d(rBase, base), signature2d(rPlan, withPlan); sb != sp {
		t.Fatalf("empty plan perturbed the 2-D run:\nbase %.120s...\nplan %.120s...", sb, sp)
	}
	if base.CommBytes != withPlan.CommBytes || base.RawCommBytes != withPlan.RawCommBytes {
		t.Fatalf("empty plan perturbed comm volume: %d/%d vs %d/%d",
			base.CommBytes, base.RawCommBytes, withPlan.CommBytes, withPlan.RawCommBytes)
	}
}

// TestBFS2DLossPlanPreservesResults: with drop/dup/reorder/corrupt
// active on every link, every rung of the 2-D ladder must cost more
// virtual time and real retransmits — and keep the identical parent
// tree at every level.
func TestBFS2DLossPlanPreservesResults(t *testing.T) {
	for _, c := range []struct {
		mode     Mode
		compress bool
	}{
		{ModeTopDown, false},
		{ModeHybrid, true},
	} {
		t.Run(fmt.Sprintf("%s-compress=%v", c.mode, c.compress), func(t *testing.T) {
			rBase, base := runWithPlan2D(t, c.mode, c.compress, nil)
			if base.Breakdown.Ns[trace.Xport] != 0 || base.Xport.Retransmits != 0 {
				t.Fatalf("clean run charged transport: %+v", base.Xport)
			}
			plan := fault.Lossy(2026, 0.05)
			r, res := runWithPlan2D(t, c.mode, c.compress, &plan)
			if res.TEPS <= 0 {
				t.Fatalf("lossy 2-D run did not finish: %+v", res)
			}
			if res.Xport.Retransmits == 0 || res.Xport.Acks == 0 {
				t.Fatalf("5%% loss produced no transport work: %+v", res.Xport)
			}
			if res.Xport.OverheadBytes <= 0 || res.Xport.OverheadBytes >= res.CommBytes {
				t.Fatalf("overhead %d outside (0, comm %d)", res.Xport.OverheadBytes, res.CommBytes)
			}
			if res.TimeNs <= base.TimeNs {
				t.Fatalf("loss cost no time: %g vs clean %g", res.TimeNs, base.TimeNs)
			}
			if res.Breakdown.Ns[trace.Xport] <= 0 {
				t.Fatalf("no transport stall in breakdown under loss: %v", res.Breakdown.Ns)
			}
			// The traversal itself — parents, per-level frontier counts,
			// direction choices — must be untouched by the transport.
			if res.TraversedEdges != base.TraversedEdges || res.Visited != base.Visited {
				t.Fatalf("traversal differs under loss: %d/%d vs %d/%d",
					res.TraversedEdges, res.Visited, base.TraversedEdges, base.Visited)
			}
			if len(res.LevelStats) != len(base.LevelStats) {
				t.Fatalf("level count differs under loss: %d vs %d", len(res.LevelStats), len(base.LevelStats))
			}
			for k := range res.LevelStats {
				if res.LevelStats[k].NF != base.LevelStats[k].NF ||
					res.LevelStats[k].MF != base.LevelStats[k].MF ||
					res.LevelStats[k].BottomUp != base.LevelStats[k].BottomUp {
					t.Fatalf("level %d differs under loss: %+v vs %+v", k+1, res.LevelStats[k], base.LevelStats[k])
				}
			}
			pb, pl := rBase.Parents(), r.Parents()
			for v := range pb {
				if pb[v] != pl[v] {
					t.Fatalf("parent tree differs under loss at vertex %d: %d vs %d", v, pl[v], pb[v])
				}
			}
		})
	}
}

// TestBFS2DLossDeterministicAcrossHostParallelism: lossy hybrid runs
// must be bit-identical across repeats and host core counts.
func TestBFS2DLossDeterministicAcrossHostParallelism(t *testing.T) {
	plan := fault.Lossy(42, 0.05)
	plan.JitterMaxNs = 200
	run := func() string {
		p := plan
		r, res := runWithPlan2D(t, ModeHybrid, true, &p)
		if res.Xport.Retransmits == 0 {
			t.Fatal("loss plan produced no retransmits")
		}
		return signature2d(r, res)
	}
	prev := runtime.GOMAXPROCS(1)
	s1 := run()
	repeat := run()
	runtime.GOMAXPROCS(4)
	s4 := run()
	runtime.GOMAXPROCS(prev)
	if s1 != repeat {
		t.Fatalf("lossy 2-D run not repeatable:\n%.160s...\n%.160s...", s1, repeat)
	}
	if s1 != s4 {
		t.Fatalf("host parallelism leaked into lossy 2-D results:\nGOMAXPROCS=1 %.160s...\nGOMAXPROCS=4 %.160s...", s1, s4)
	}
}

// TestBFS2DCrashRecoveryCompletesWithSameTree: a crashed rank must
// recover by full rerun — finite TEPS, identical BFS tree, the recovery
// cost visible in the breakdown and the crash/recover events in the obs
// metrics report — instead of panicking.
func TestBFS2DCrashRecoveryCompletesWithSameTree(t *testing.T) {
	const scale = 12
	params := rmat.Graph500(scale)
	rBase, base := runWithPlan2D(t, ModeHybrid, false, nil)

	for _, frac := range []float64{0, 0.5} {
		plan := fault.Plan{Crashes: []fault.Crash{{Rank: 1, AtNs: frac * base.TimeNs}}}
		r, err := NewRunner(testConfig(scale, 2, 4), machine.PPN8Bind, Grid{R: 2, C: 4}, params)
		if err != nil {
			t.Fatal(err)
		}
		r.Mode = ModeHybrid
		rec := obs.NewRecorder()
		r.AttachObs(rec.NewSession(fmt.Sprintf("2d-crash-%g", frac)))
		r.Setup()
		if err := r.InjectFaults(plan); err != nil {
			t.Fatal(err)
		}
		res := r.RunRoot(base.Root)

		if len(res.Faults) != 1 || res.Faults[0].Rank != 1 {
			t.Fatalf("frac %g: Faults = %+v, want one crash of rank 1", frac, res.Faults)
		}
		if res.TEPS <= 0 || res.TimeNs <= base.TimeNs {
			t.Fatalf("frac %g: TEPS %g, TimeNs %g (base %g): recovery must cost time and still finish",
				frac, res.TEPS, res.TimeNs, base.TimeNs)
		}
		if res.TraversedEdges != base.TraversedEdges || res.Visited != base.Visited {
			t.Fatalf("frac %g: traversal differs: %d/%d vs base %d/%d",
				frac, res.TraversedEdges, res.Visited, base.TraversedEdges, base.Visited)
		}
		pb, pr := rBase.Parents(), r.Parents()
		for v := range pb {
			if pb[v] != pr[v] {
				t.Fatalf("frac %g: parent tree differs at vertex %d: %d vs %d", frac, v, pr[v], pb[v])
			}
		}
		if res.Breakdown.Ns[trace.Recovery] <= 0 {
			t.Errorf("frac %g: no recovery time in breakdown", frac)
		}
		report := rec.Dump().Report().String()
		if !strings.Contains(report, "fault events:") ||
			!strings.Contains(report, "crash=1") || !strings.Contains(report, "recover=") {
			t.Errorf("frac %g: metrics report missing fault events:\n%s", frac, report)
		}
	}
}

// TestBFS2DFoldCompressionLedger: with Compress on, the fold alltoallv
// must actually travel in list format — fewer wire bytes than raw, the
// raw ledger equal to the uncompressed volume, and the codec stats
// internally consistent.
func TestBFS2DFoldCompressionLedger(t *testing.T) {
	rPlain, plain := runWithPlan2D(t, ModeTopDown, false, nil)
	rComp, comp := runWithPlan2D(t, ModeTopDown, true, nil)
	_ = rPlain

	if comp.RawCommBytes != plain.CommBytes {
		t.Fatalf("compressed raw volume %d != plain volume %d", comp.RawCommBytes, plain.CommBytes)
	}
	if comp.CommBytes >= plain.CommBytes {
		t.Fatalf("compressed wire bytes %d not below plain %d", comp.CommBytes, plain.CommBytes)
	}
	// The fold pairs go through their own codec in list format; the
	// aggregate Wire ledger must reflect both expand and fold traffic.
	var foldSegs int64
	for _, rs := range rComp.states {
		if rs.foldCodec == nil {
			t.Fatal("Compress set but foldCodec nil")
		}
		st := rs.foldCodec.Stats()
		foldSegs += st.Segments[wire.FormatList]
		for f, n := range st.Segments {
			if wire.Format(f) != wire.FormatList && n != 0 {
				t.Fatalf("fold codec used non-list format %d: %+v", f, st)
			}
		}
	}
	if foldSegs == 0 {
		t.Fatal("fold codec encoded no list segments")
	}
	if comp.Wire.RawBytes == 0 || comp.Wire.WireBytes == 0 || comp.Wire.WireBytes >= comp.Wire.RawBytes {
		t.Fatalf("aggregate wire ledger inconsistent: %+v", comp.Wire)
	}
	if plain.Wire.RawBytes != 0 {
		t.Fatalf("uncompressed run accumulated wire stats: %+v", plain.Wire)
	}
}

// TestPermanentCrashPromotesSpare2D: with hot spares parked, a
// permanent rank death remaps the dead rank's grid cell onto a spare
// and the rerun completes on the remapped grid — same traversal as the
// clean spared run, bit-identical across repeats, with the detection
// delay and the cell re-own cost in MTTR. A second permanent death
// promotes again; with no spare left (the zero-spare runner) a
// permanent crash falls back to rerun-in-place.
func TestPermanentCrashPromotesSpare2D(t *testing.T) {
	const scale = 12
	params := rmat.Graph500(scale)
	build := func() *Runner {
		// 8 ranks, 4 parked spares: the 4 grid cells divide the 4096
		// vertices evenly.
		return setUp(t, testConfig(scale, 2, 4), Grid{R: 2, C: 2}, params, 4, ModeTopDown, false)
	}

	clean := build()
	root := params.Roots(1, clean.HasEdgeGlobal)[0]
	cleanRes := clean.RunRoot(root)
	if cleanRes.Epoch != 0 {
		t.Fatalf("clean spared run stepped the epoch to %d", cleanRes.Epoch)
	}

	run := func() (*Runner, RootResult) {
		r := build()
		plan := fault.Plan{Crashes: []fault.Crash{{Rank: 2, AtNs: 0.5 * cleanRes.TimeNs, Permanent: true}}}
		if err := r.InjectFaults(plan); err != nil {
			t.Fatal(err)
		}
		return r, r.RunRoot(root)
	}
	r, res := run()
	if len(res.Faults) != 1 || !res.Faults[0].Permanent {
		t.Fatalf("Faults = %+v, want one permanent crash", res.Faults)
	}
	if res.Epoch != 1 {
		t.Fatalf("epoch %d after one promotion, want 1", res.Epoch)
	}
	if res.MTTRNs <= 0 {
		t.Errorf("MTTRNs = %g, want > 0", res.MTTRNs)
	}
	if res.Breakdown.Ns[trace.Reown] <= 0 {
		t.Errorf("no Reown time in the breakdown")
	}
	if res.Visited != cleanRes.Visited || res.TraversedEdges != cleanRes.TraversedEdges {
		t.Fatalf("traversal differs: %d/%d vs clean %d/%d",
			res.Visited, res.TraversedEdges, cleanRes.Visited, cleanRes.TraversedEdges)
	}
	// The grid shape and every block range survive the remap, and the
	// rerun replays the clean schedule: parent trees are bit-identical.
	cp, rp := clean.Parents(), r.Parents()
	for v := range rp {
		if rp[v] != cp[v] {
			t.Fatalf("parent of %d differs after promotion: %d vs %d", v, rp[v], cp[v])
		}
	}
	// Bit-identical across repeats.
	r2, res2 := run()
	if s1, s2 := signature2d(r, res), signature2d(r2, res2); s1 != s2 {
		t.Fatalf("promoted run not deterministic:\n1st %.160s...\n2nd %.160s...", s1, s2)
	}

	// Two permanent deaths, two promotions.
	r3 := build()
	if err := r3.InjectFaults(fault.Plan{Crashes: []fault.Crash{
		{Rank: 2, AtNs: 0.5 * cleanRes.TimeNs, Permanent: true},
		{Rank: 1, AtNs: 0.6 * cleanRes.TimeNs, Permanent: true},
	}}); err != nil {
		t.Fatal(err)
	}
	res3 := r3.RunRoot(root)
	if len(res3.Faults) != 2 || res3.Epoch != 2 {
		t.Fatalf("two permanent crashes: faults %d, epoch %d, want 2/2", len(res3.Faults), res3.Epoch)
	}
	if res3.Visited != cleanRes.Visited {
		t.Fatalf("visited %d vs clean %d", res3.Visited, cleanRes.Visited)
	}

	// No spares: a permanent crash falls back to the historical
	// rerun-in-place, epoch untouched.
	r4 := setUp(t, testConfig(scale, 2, 4), Grid{R: 2, C: 4}, params, 0, ModeTopDown, false)
	if err := r4.InjectFaults(fault.Plan{Crashes: []fault.Crash{
		{Rank: 2, AtNs: 0.5 * cleanRes.TimeNs, Permanent: true},
	}}); err != nil {
		t.Fatal(err)
	}
	res4 := r4.RunRoot(root)
	if len(res4.Faults) != 1 || res4.Epoch != 0 {
		t.Fatalf("no-spare fallback: faults %d, epoch %d, want 1/0", len(res4.Faults), res4.Epoch)
	}
}

// TestSpareGridValidates2D: the Graph500 tree rules hold on the
// remapped grid, including when cell 0 itself is remapped (the
// cell→rank table, not rank arithmetic, must drive block ownership).
// Tree edges are checked against the sequential global build.
func TestSpareGridValidates2D(t *testing.T) {
	const scale = 12
	params := rmat.Graph500(scale)
	r := setUp(t, testConfig(scale, 2, 4), Grid{R: 2, C: 2}, params, 4, ModeTopDown, false)
	root := params.Roots(1, r.HasEdgeGlobal)[0]
	probe := r.RunRoot(root)
	if err := r.InjectFaults(fault.Plan{Crashes: []fault.Crash{
		{Rank: 0, AtNs: 0.4 * probe.TimeNs, Permanent: true}, // cell 0 dies: cellRank[0] remaps
	}}); err != nil {
		t.Fatal(err)
	}
	res := r.RunRoot(root)
	if res.Epoch != 1 {
		t.Fatalf("epoch %d, want 1", res.Epoch)
	}
	g := graph.BuildGlobal(params, true)
	parent, level := r.Parents(), r.Levels(root)
	if parent[root] != root || level[root] != 0 {
		t.Fatalf("root: parent %d level %d", parent[root], level[root])
	}
	for v := int64(0); v < int64(len(parent)); v++ {
		pv := parent[v]
		if pv < 0 || v == root {
			continue
		}
		if _, ok := slices.BinarySearch(g.Neighbors(v), uint32(pv)); !ok {
			t.Fatalf("tree edge (%d, %d) is not a graph edge", v, pv)
		}
		if level[v] != level[pv]+1 {
			t.Fatalf("vertex %d at level %d, parent %d at level %d", v, level[v], pv, level[pv])
		}
	}
}
