package bfs

// Acceptance tests for deterministic fault injection: an empty plan is
// an exact identity (bit-identical results, so the weak-node figures
// cannot move), a nontrivial plan is deterministic across host core
// counts, and a crashed rank recovers through level-boundary
// checkpoints with the same BFS tree and a finite TEPS.

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"numabfs/internal/fault"
	"numabfs/internal/machine"
	"numabfs/internal/obs"
	"numabfs/internal/rmat"
	"numabfs/internal/trace"
)

// signature compresses everything a RootResult guarantees to be
// deterministic, plus the full parent trees, into one comparable string.
func signature(r *Runner, res RootResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "t=%x bd=%x e=%d v=%d lv=%d",
		res.TimeNs, res.Breakdown.Total(), res.TraversedEdges, res.Visited, res.Levels)
	for _, ls := range res.LevelStats {
		fmt.Fprintf(&b, " %d/%d/%x", ls.NF, ls.MF, ls.Ns)
	}
	for _, pa := range r.ParentArrays() {
		for _, p := range pa {
			fmt.Fprintf(&b, ",%d", p)
		}
	}
	return b.String()
}

func runWithPlan(t *testing.T, cfg machine.Config, params rmat.Params, plan *fault.Plan) (*Runner, RootResult) {
	t.Helper()
	r := setUp(t, cfg, machine.PPN8Bind, params, DefaultOptions())
	if plan != nil {
		if err := r.InjectFaults(*plan); err != nil {
			t.Fatal(err)
		}
	}
	root := params.Roots(1, r.HasEdgeGlobal)[0]
	return r, r.RunRoot(root)
}

// TestEmptyPlanIsExactIdentity: injecting a zero-value plan must leave
// every output bit-identical to a run with no injector call at all —
// the guarantee that the fault layer costs nothing when unused.
func TestEmptyPlanIsExactIdentity(t *testing.T) {
	const scale = 12
	params := rmat.Graph500(scale)
	rBase, base := runWithPlan(t, testConfig(scale, 2, 4), params, nil)
	rPlan, withPlan := runWithPlan(t, testConfig(scale, 2, 4), params, &fault.Plan{})
	if sb, sp := signature(rBase, base), signature(rPlan, withPlan); sb != sp {
		t.Fatalf("empty plan perturbed the run:\nbase %.120s...\nplan %.120s...", sb, sp)
	}
	if base.CommBytes != withPlan.CommBytes || base.RawCommBytes != withPlan.RawCommBytes {
		t.Fatalf("empty plan perturbed comm volume: %d/%d vs %d/%d",
			base.CommBytes, base.RawCommBytes, withPlan.CommBytes, withPlan.RawCommBytes)
	}
}

// TestWeakNodeConfigEqualsInjectedPlan: the config's weak node (the
// paper's ill-performing node, Figs. 13/15) is now implemented as a
// trivial static fault plan — a config-driven run and an explicitly
// injected equivalent plan must agree bit for bit.
func TestWeakNodeConfigEqualsInjectedPlan(t *testing.T) {
	const scale = 12
	params := rmat.Graph500(scale)

	cfgWeak := testConfig(scale, 2, 4)
	cfgWeak.WeakNode = 1
	cfgWeak.WeakNodeBWFactor = 0.8
	rCfg, viaConfig := runWithPlan(t, cfgWeak, params, nil)

	plan := fault.WeakNode(1, 0.8)
	rInj, viaPlan := runWithPlan(t, testConfig(scale, 2, 4), params, &plan)

	if sc, sp := signature(rCfg, viaConfig), signature(rInj, viaPlan); sc != sp {
		t.Fatalf("config weak node and injected plan disagree:\nconfig %.120s...\nplan   %.120s...", sc, sp)
	}
	// Sanity: the weak node actually slowed the run down.
	_, clean := runWithPlan(t, testConfig(scale, 2, 4), params, nil)
	if viaConfig.TimeNs <= clean.TimeNs {
		t.Fatalf("weak node did not slow the run: %g vs clean %g", viaConfig.TimeNs, clean.TimeNs)
	}
}

// TestFaultsDeterministicAcrossHostParallelism: the same plan + seed
// must yield bit-identical virtual-time results regardless of how the
// host schedules the rank goroutines — including through a crash and
// its checkpoint recovery.
func TestFaultsDeterministicAcrossHostParallelism(t *testing.T) {
	const scale = 12
	params := rmat.Graph500(scale)

	// Derive a mid-run crash time from an unperturbed probe.
	_, probe := runWithPlan(t, testConfig(scale, 2, 4), params, nil)
	plan := fault.Plan{
		Seed:        7,
		BW:          []fault.BWEvent{{Node: 1, Src: -1, Dst: -1, Factor: 0.5, FromNs: 0.2 * probe.TimeNs, UntilNs: 0.8 * probe.TimeNs}},
		Stragglers:  []fault.Straggler{{Rank: 3, Factor: 1.3}},
		JitterMaxNs: 200,
		Crashes:     []fault.Crash{{Rank: 2, AtNs: 0.5 * probe.TimeNs}},
	}

	run := func() string {
		p := plan
		r, res := runWithPlan(t, testConfig(scale, 2, 4), params, &p)
		if len(res.Faults) == 0 {
			t.Fatal("scheduled crash never fired")
		}
		return signature(r, res)
	}
	prev := runtime.GOMAXPROCS(1)
	s1 := run()
	runtime.GOMAXPROCS(4)
	s4 := run()
	runtime.GOMAXPROCS(prev)
	if s1 != s4 {
		t.Fatalf("host parallelism leaked into faulted results:\nGOMAXPROCS=1 %.160s...\nGOMAXPROCS=4 %.160s...", s1, s4)
	}
}

// TestCrashRecoveryCompletesWithSameTree: a crashed-rank run must
// complete via checkpoint recovery — finite TEPS, identical BFS tree to
// the undisturbed run, the recovery cost visible in the breakdown and
// the crash/recover events in the obs metrics report — instead of
// panicking.
func TestCrashRecoveryCompletesWithSameTree(t *testing.T) {
	const scale = 12
	params := rmat.Graph500(scale)
	rBase, base := runWithPlan(t, testConfig(scale, 2, 4), params, nil)

	for _, frac := range []float64{0, 0.5} { // before the first checkpoint (full rerun) and mid-run
		plan := &fault.Plan{Crashes: []fault.Crash{{Rank: 1, AtNs: frac * base.TimeNs}}}
		r, err := NewRunner(testConfig(scale, 2, 4), machine.PPN8Bind, params, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		rec := obs.NewRecorder()
		r.AttachObs(rec.NewSession(fmt.Sprintf("crash-%g", frac)))
		r.Setup()
		if err := r.InjectFaults(*plan); err != nil {
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
		for rank, pa := range r.ParentArrays() {
			for v, p := range pa {
				if p != rBase.ParentArrays()[rank][v] {
					t.Fatalf("frac %g: parent tree differs at rank %d vertex %d: %d vs %d",
						frac, rank, v, p, rBase.ParentArrays()[rank][v])
				}
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

// TestCheckpointCostOnlyWhenCrashPlanned: a plan without crashes must
// not turn checkpointing on — the copies have a modelled cost that
// would otherwise perturb every perturbation-free result.
func TestCheckpointCostOnlyWhenCrashPlanned(t *testing.T) {
	const scale = 12
	params := rmat.Graph500(scale)
	plan := fault.Plan{Stragglers: []fault.Straggler{{Rank: 0, Factor: 1.5}}}
	r, res := runWithPlan(t, testConfig(scale, 2, 4), params, &plan)
	if r.CrashPlanned() {
		t.Fatal("checkpointing on without a scheduled crash")
	}
	if ck := res.Breakdown.Ns[trace.Ckpt]; ck != 0 {
		t.Fatalf("checkpoint time %g charged without a crash plan", ck)
	}
}
