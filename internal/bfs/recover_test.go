package bfs

// Acceptance tests for degraded-mode completion: a permanent rank death
// mid-iteration reruns the iteration from the root — in place, or after
// promoting a parked hot spare into the dead rank's slot — with the
// same parent tree as the clean run, bit-identically across repeats and
// host core counts, at every optimization level.

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

// TestRerunInPlaceCompletesEveryOptLevel: without a spare, one
// permanent mid-run death reruns the iteration with the dead rank
// restarted in place, at every optimization level: the same members,
// epoch 0, the clean run's parent tree, and the detection latency in
// MTTR and the Recovery phase.
func TestRerunInPlaceCompletesEveryOptLevel(t *testing.T) {
	const scale = 12
	for opt := OptOriginal; opt <= OptOverlapAllgather; opt++ {
		opt := opt
		t.Run(opt.String(), func(t *testing.T) {
			opts := DefaultOptions()
			opts.Opt = opt
			base, cleanRes := runRecovery(t, opts, fault.Plan{}, scale)
			r, res := runRecovery(t, opts, permanentPlan(2, 0.5*cleanRes.TimeNs), scale)

			if len(res.Faults) != 1 || !res.Faults[0].Permanent {
				t.Fatalf("Faults = %+v, want one permanent crash", res.Faults)
			}
			if res.Epoch != 0 || len(r.ParentArrays()) != 8 {
				t.Fatalf("epoch %d with %d members, want 0 and all 8", res.Epoch, len(r.ParentArrays()))
			}
			if res.MTTRNs <= 0 || res.Breakdown.Ns[trace.Recovery] <= 0 {
				t.Errorf("MTTRNs = %g, Recovery = %g, want both > 0", res.MTTRNs, res.Breakdown.Ns[trace.Recovery])
			}
			if res.Breakdown.Ns[trace.Reown] != 0 {
				t.Errorf("Reown %g without a promotion", res.Breakdown.Ns[trace.Reown])
			}
			sameParents(t, "rerun in place", r, base)
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

// TestSpareExhaustionRerunsInPlace: a permanent death on a node whose
// spare is already taken reruns in place. Ranks 1 and 2 share node 0
// and its one spare: the first death promotes it, the second finds
// none, and the run still ends on the clean spares run's tree.
func TestSpareExhaustionRerunsInPlace(t *testing.T) {
	const scale = 12
	opts := DefaultOptions()
	opts.SpareRanks = 1
	base, clean := runRecovery(t, opts, fault.Plan{}, scale)
	plan := fault.Plan{Crashes: []fault.Crash{
		{Rank: 1, AtNs: 0.3 * clean.TimeNs, Permanent: true},
		{Rank: 2, AtNs: 0.6 * clean.TimeNs, Permanent: true},
	}}
	r, res := runRecovery(t, opts, plan, scale)
	if len(res.Faults) != 2 || res.Epoch != 1 || len(r.ParentArrays()) != 6 {
		t.Fatalf("%d faults, epoch %d, %d members: want 2 faults, one promotion, 6 members",
			len(res.Faults), res.Epoch, len(r.ParentArrays()))
	}
	sameParents(t, "spare exhausted", r, base)
}

// TestDegradedRunsDeterministic: rerun and spare recoveries must be
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
		{"rerun", func() Options {
			o := DefaultOptions()
			o.Opt = OptParAllgather
			return o
		}, 2},
		{"spare", func() Options {
			o := DefaultOptions()
			o.Opt = OptParAllgather
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
// in place whatever the spare reservation — no spare is promoted, and
// the run ends on its clean tree.
func TestTransientCrashIgnoresPolicy(t *testing.T) {
	const scale = 12
	opts := DefaultOptions()
	opts.SpareRanks = 1
	base, clean := runRecovery(t, opts, fault.Plan{}, scale)
	plan := fault.Plan{Crashes: []fault.Crash{{Rank: 2, AtNs: 0.5 * clean.TimeNs}}}
	r, res := runRecovery(t, opts, plan, scale)
	if len(res.Faults) != 1 || res.Epoch != 0 || res.Breakdown.Ns[trace.Reown] != 0 {
		t.Fatalf("%d faults, epoch %d, Reown %g: a transient crash must not promote",
			len(res.Faults), res.Epoch, res.Breakdown.Ns[trace.Reown])
	}
	sameParents(t, "transient", r, base)
}

// TestPermanentCrashAtTimeZero: a permanent death before the first
// operation reruns the whole iteration in place from the detection
// floor.
func TestPermanentCrashAtTimeZero(t *testing.T) {
	const scale = 12
	base, clean := runRecovery(t, DefaultOptions(), fault.Plan{}, scale)
	r, res := runRecovery(t, DefaultOptions(), permanentPlan(2, 0), scale)
	if len(res.Faults) != 1 || res.Epoch != 0 {
		t.Fatalf("%d faults on epoch %d, want one rerun in place", len(res.Faults), res.Epoch)
	}
	if res.TimeNs <= clean.TimeNs || res.Breakdown.Ns[trace.Recovery] <= 0 {
		t.Errorf("time %g (clean %g), Recovery %g: the detection wait was not charged",
			res.TimeNs, clean.TimeNs, res.Breakdown.Ns[trace.Recovery])
	}
	sameParents(t, "crash at 0", r, base)
}

// TestPromotionSurvivesLaterRoots: after a promotion, subsequent roots
// run on the promoted membership and stay valid — the epoch does not
// step again.
func TestPromotionSurvivesLaterRoots(t *testing.T) {
	const scale = 12
	params := rmat.Graph500(scale)
	opts := DefaultOptions()
	opts.SpareRanks = 1
	_, probe := runRecovery(t, opts, fault.Plan{}, scale)
	r := setUp(t, testConfig(scale, 2, 4), machine.PPN8Bind, params, opts)
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

// TestVisitCountersThroughRecovery: the members count visits as they
// set parents and the result tail sums them. A permanent death mid-run,
// rerun in place or on a promoted spare, must leave counts that agree
// with the recount from the finished parent arrays — the lost attempt's
// share neither kept nor doubled.
func TestVisitCountersThroughRecovery(t *testing.T) {
	const scale = 12
	for _, opt := range []Opt{OptOriginal, OptCompressedAllgather} {
		t.Run(opt.String(), func(t *testing.T) {
			for spares := 0; spares <= 1; spares++ {
				opts := optOptions(opt)
				opts.SpareRanks = spares
				base, clean := runRecovery(t, opts, fault.Plan{}, scale)
				if v, e := refVisits(base); clean.Visited != v || clean.TraversedEdges != e {
					t.Fatalf("clean run counted %d/%d, reference %d/%d", clean.Visited, clean.TraversedEdges, v, e)
				}
				for _, at := range []float64{0.3, 0.7} {
					r, res := runRecovery(t, opts, permanentPlan(2, at*clean.TimeNs), scale)
					if res.Epoch != spares {
						t.Fatalf("spares %d, crash at %.1f: epoch %d, want %d", spares, at, res.Epoch, spares)
					}
					if v, e := refVisits(r); res.Visited != v || res.TraversedEdges != e {
						t.Fatalf("spares %d, crash at %.1f: counted %d/%d, reference %d/%d",
							spares, at, res.Visited, res.TraversedEdges, v, e)
					}
				}
			}
		})
	}
}
