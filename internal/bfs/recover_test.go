package bfs

// Acceptance tests for degraded-mode completion: a permanent rank death
// mid-iteration finishes on the survivors — by shrinking the partition
// onto a contiguous absorber or by promoting a parked hot spare — with
// the same traversed component and level structure as the clean run,
// bit-identically across repeats and host core counts, at every
// optimization level. The rerun policy must keep reproducing the
// transient-crash behavior exactly.

import (
	"fmt"
	"runtime"
	"testing"

	"numabfs/internal/fault"
	"numabfs/internal/machine"
	"numabfs/internal/rmat"
	"numabfs/internal/trace"
)

// permanentPlan schedules one permanent death of rank at the given
// virtual time.
func permanentPlan(rank int, atNs float64) fault.Plan {
	return fault.Plan{Crashes: []fault.Crash{{Rank: rank, AtNs: atNs, Permanent: true}}}
}

// runRecovery builds a runner with the given recovery options, injects
// the plan, and runs one root.
func runRecovery(t *testing.T, opts Options, plan fault.Plan, scale int) (*Runner, RootResult) {
	t.Helper()
	params := rmat.Graph500(scale)
	r := setUp(t, testConfig(scale, 2, 4), machine.PPN8Bind, params, opts)
	if err := r.InjectFaults(plan); err != nil {
		t.Fatal(err)
	}
	root := params.Roots(1, r.HasEdgeGlobal)[0]
	return r, r.RunRoot(root)
}

// TestShrinkCompletesEveryOptLevel: one permanent mid-run death under
// RecoverShrink must complete at every optimization level with the same
// component and level structure as the clean run, a stepped epoch, and
// the re-own cost visible in MTTR and the Reown phase.
func TestShrinkCompletesEveryOptLevel(t *testing.T) {
	const scale = 12
	for opt := OptOriginal; opt <= OptOverlapAllgather; opt++ {
		opt := opt
		t.Run(opt.String(), func(t *testing.T) {
			opts := DefaultOptions()
			opts.Opt = opt
			base, cleanRes := runRecovery(t, opts, fault.Plan{}, scale)

			opts.Recovery = RecoverShrink
			r, res := runRecovery(t, opts, permanentPlan(2, 0.5*cleanRes.TimeNs), scale)

			if len(res.Faults) != 1 || !res.Faults[0].Permanent {
				t.Fatalf("Faults = %+v, want one permanent crash", res.Faults)
			}
			if res.Epoch != 1 {
				t.Fatalf("epoch %d after one shrink, want 1", res.Epoch)
			}
			if got := len(r.ParentArrays()); got != 7 {
				t.Fatalf("%d members after shrinking one of 8", got)
			}
			if res.Visited != cleanRes.Visited || res.TraversedEdges != cleanRes.TraversedEdges {
				t.Fatalf("traversal differs: %d/%d vs clean %d/%d",
					res.Visited, res.TraversedEdges, cleanRes.Visited, cleanRes.TraversedEdges)
			}
			if res.MTTRNs <= 0 {
				t.Errorf("MTTRNs = %g, want > 0", res.MTTRNs)
			}
			if res.Breakdown.Ns[trace.Reown] <= 0 {
				t.Errorf("no Reown time in breakdown")
			}
			// The shrunken run may pick different (valid) parents, but the
			// BFS level of every vertex is parent-independent.
			lv, lvBase := levelsOf(r, res.Root), levelsOf(base, cleanRes.Root)
			for v := range lv {
				if lv[v] != lvBase[v] {
					t.Fatalf("vertex %d at level %d, clean run has %d", v, lv[v], lvBase[v])
				}
			}
		})
	}
}

// TestSpareCompletesEveryOptLevel: with hot spares parked, a permanent
// death promotes a same-node spare into the exact slot — the partition
// is unchanged, so the parent tree must be bit-identical to the clean
// spares run at every optimization level.
func TestSpareCompletesEveryOptLevel(t *testing.T) {
	const scale = 12
	for opt := OptOriginal; opt <= OptOverlapAllgather; opt++ {
		opt := opt
		t.Run(opt.String(), func(t *testing.T) {
			opts := DefaultOptions()
			opts.Opt = opt
			opts.SpareRanks = 1
			base, cleanRes := runRecovery(t, opts, fault.Plan{}, scale)
			if got := len(base.ParentArrays()); got != 6 {
				t.Fatalf("%d active members with 1 spare per node on 2x4 ranks, want 6", got)
			}

			opts.Recovery = RecoverSpare
			r, res := runRecovery(t, opts, permanentPlan(1, 0.5*cleanRes.TimeNs), scale)

			if len(res.Faults) != 1 || !res.Faults[0].Permanent {
				t.Fatalf("Faults = %+v, want one permanent crash", res.Faults)
			}
			if res.Epoch != 1 {
				t.Fatalf("epoch %d after one promotion, want 1", res.Epoch)
			}
			if got := len(r.ParentArrays()); got != 6 {
				t.Fatalf("%d members after promotion, want 6 (slot survives)", got)
			}
			if res.Visited != cleanRes.Visited || res.TraversedEdges != cleanRes.TraversedEdges {
				t.Fatalf("traversal differs: %d/%d vs clean %d/%d",
					res.Visited, res.TraversedEdges, cleanRes.Visited, cleanRes.TraversedEdges)
			}
			if res.MTTRNs <= 0 {
				t.Errorf("MTTRNs = %g, want > 0", res.MTTRNs)
			}
			basePA := base.ParentArrays()
			for pos, pa := range r.ParentArrays() {
				for v, p := range pa {
					if p != basePA[pos][v] {
						t.Fatalf("parent tree differs at position %d vertex %d: %d vs %d",
							pos, v, p, basePA[pos][v])
					}
				}
			}
		})
	}
}

// TestSpareExhaustionFallsBackToShrink: RecoverSpare on a node with no
// spare left must shrink instead of failing.
func TestSpareExhaustionFallsBackToShrink(t *testing.T) {
	const scale = 12
	opts := DefaultOptions()
	opts.Recovery = RecoverSpare // SpareRanks = 0: nothing parked
	_, clean := runRecovery(t, DefaultOptions(), fault.Plan{}, scale)
	r, res := runRecovery(t, opts, permanentPlan(2, 0.5*clean.TimeNs), scale)
	if res.Epoch != 1 || len(r.ParentArrays()) != 7 {
		t.Fatalf("epoch %d, %d members: expected a shrink fallback", res.Epoch, len(r.ParentArrays()))
	}
	if res.Visited != clean.Visited {
		t.Fatalf("visited %d vs clean %d", res.Visited, clean.Visited)
	}
}

// TestDegradedRunsDeterministic: shrink and spare recoveries must be
// bit-identical across repeats and host core counts — the same
// determinism contract the clean simulator gives.
func TestDegradedRunsDeterministic(t *testing.T) {
	const scale = 12
	_, clean := runRecovery(t, DefaultOptions(), fault.Plan{}, scale)
	cases := []struct {
		name string
		opts func() Options
		rank int
	}{
		{"shrink", func() Options {
			o := DefaultOptions()
			o.Opt = OptParAllgather
			o.Recovery = RecoverShrink
			return o
		}, 2},
		{"spare", func() Options {
			o := DefaultOptions()
			o.Opt = OptParAllgather
			o.Recovery = RecoverSpare
			o.SpareRanks = 1
			return o
		}, 1},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			run := func() string {
				r, res := runRecovery(t, tc.opts(), permanentPlan(tc.rank, 0.4*clean.TimeNs), scale)
				if len(res.Faults) != 1 {
					t.Fatal("scheduled permanent crash never fired")
				}
				return signature(r, res) + fmt.Sprintf(" mttr=%x ep=%d", res.MTTRNs, res.Epoch)
			}
			s1 := run()
			s2 := run()
			if s1 != s2 {
				t.Fatalf("repeat differs:\n1st %.160s...\n2nd %.160s...", s1, s2)
			}
			prev := runtime.GOMAXPROCS(1)
			sSerial := run()
			runtime.GOMAXPROCS(prev)
			if s1 != sSerial {
				t.Fatalf("host parallelism leaked into degraded run:\npar    %.160s...\nserial %.160s...", s1, sSerial)
			}
		})
	}
}

// TestTransientCrashIgnoresPolicy: a transient crash restarts the rank
// in place regardless of the recovery policy — bit-identical to the
// historical rerun behavior.
func TestTransientCrashIgnoresPolicy(t *testing.T) {
	const scale = 12
	_, clean := runRecovery(t, DefaultOptions(), fault.Plan{}, scale)
	plan := fault.Plan{Crashes: []fault.Crash{{Rank: 2, AtNs: 0.5 * clean.TimeNs}}}

	rRerun, resRerun := runRecovery(t, DefaultOptions(), plan, scale)
	optsShrink := DefaultOptions()
	optsShrink.Recovery = RecoverShrink
	rShrink, resShrink := runRecovery(t, optsShrink, plan, scale)

	if resRerun.Epoch != 0 || resShrink.Epoch != 0 {
		t.Fatalf("transient crash advanced an epoch: %d/%d", resRerun.Epoch, resShrink.Epoch)
	}
	if sr, ss := signature(rRerun, resRerun), signature(rShrink, resShrink); sr != ss {
		t.Fatalf("transient crash behavior depends on policy:\nrerun  %.160s...\nshrink %.160s...", sr, ss)
	}
}

// TestPermanentCrashBeforeFirstCheckpoint: a permanent death before any
// checkpoint exists shrinks the world and reruns the iteration from the
// root on the survivors.
func TestPermanentCrashBeforeFirstCheckpoint(t *testing.T) {
	const scale = 12
	_, clean := runRecovery(t, DefaultOptions(), fault.Plan{}, scale)
	opts := DefaultOptions()
	opts.Recovery = RecoverShrink
	r, res := runRecovery(t, opts, permanentPlan(2, 0), scale)
	if res.Epoch != 1 || len(r.ParentArrays()) != 7 {
		t.Fatalf("epoch %d, %d members: expected a shrink", res.Epoch, len(r.ParentArrays()))
	}
	if res.Visited != clean.Visited || res.TraversedEdges != clean.TraversedEdges {
		t.Fatalf("traversal differs: %d/%d vs clean %d/%d",
			res.Visited, res.TraversedEdges, clean.Visited, clean.TraversedEdges)
	}
	if res.Breakdown.Ns[trace.Recovery] <= 0 {
		t.Errorf("no Recovery time in breakdown")
	}
}

// TestShrinkSurvivesLaterRoots: after a shrink, subsequent roots run on
// the shrunken world and stay valid — the epoch does not step again.
func TestShrinkSurvivesLaterRoots(t *testing.T) {
	const scale = 12
	params := rmat.Graph500(scale)
	opts := DefaultOptions()
	opts.Recovery = RecoverShrink
	r := setUp(t, testConfig(scale, 2, 4), machine.PPN8Bind, params, opts)
	_, probe := runRecovery(t, DefaultOptions(), fault.Plan{}, scale)
	if err := r.InjectFaults(permanentPlan(2, 0.5*probe.TimeNs)); err != nil {
		t.Fatal(err)
	}
	roots := params.Roots(3, r.HasEdgeGlobal)
	res0 := r.RunRoot(roots[0])
	if res0.Epoch != 1 || len(res0.Faults) != 1 {
		t.Fatalf("first root: epoch %d, faults %d", res0.Epoch, len(res0.Faults))
	}
	for _, root := range roots[1:] {
		res := r.RunRoot(root)
		if res.Epoch != 1 || len(res.Faults) != 0 {
			t.Fatalf("later root %d: epoch %d, faults %d — crash must not re-fire", root, res.Epoch, len(res.Faults))
		}
		if res.Visited <= 0 || res.TEPS <= 0 {
			t.Fatalf("later root %d did not complete: visited %d, TEPS %g", root, res.Visited, res.TEPS)
		}
	}
}

// refVisits recounts, serially from the members' finished parent
// arrays, what the ledgers counted during the traversal: the visited
// vertices and half the degree sum of them.
func refVisits(r *Runner) (visited, edges int64) {
	for _, rs := range r.states {
		for i, pa := range rs.parent {
			if pa >= 0 {
				visited++
				edges += rs.csr.Degree(rs.csr.Lo + int64(i))
			}
		}
	}
	return visited, edges / 2
}

// TestVisitCountersThroughShrink: the members count visits as they set
// parents and the result tail sums them. After a permanent death under
// RecoverShrink the absorber must carry the dead rank's checkpointed
// counts; a lost or doubled share disagrees with the recount.
func TestVisitCountersThroughShrink(t *testing.T) {
	const scale = 12
	for _, opt := range []Opt{OptOriginal, OptCompressedAllgather} {
		t.Run(opt.String(), func(t *testing.T) {
			opts := optOptions(opt)
			base, clean := runRecovery(t, opts, fault.Plan{}, scale)
			if v, e := refVisits(base); clean.Visited != v || clean.TraversedEdges != e {
				t.Fatalf("clean run counted %d/%d, reference %d/%d", clean.Visited, clean.TraversedEdges, v, e)
			}
			opts.Recovery = RecoverShrink
			for _, at := range []float64{0.3, 0.7} {
				r, res := runRecovery(t, opts, permanentPlan(2, at*clean.TimeNs), scale)
				if res.Epoch != 1 {
					t.Fatalf("crash at %.1f: epoch %d, want 1 (one shrink)", at, res.Epoch)
				}
				if v, e := refVisits(r); res.Visited != v || res.TraversedEdges != e {
					t.Fatalf("crash at %.1f: counted %d/%d, reference %d/%d", at, res.Visited, res.TraversedEdges, v, e)
				}
			}
		})
	}
}
