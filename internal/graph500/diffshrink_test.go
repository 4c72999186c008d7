package graph500

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"numabfs/internal/bfs"
	"numabfs/internal/fault"
	"numabfs/internal/machine"
	"numabfs/internal/obs"
	"numabfs/internal/rmat"
)

// diffCleanVsShrink runs the same root twice on the 1-D hybrid engine —
// a clean run as baseline A, and as candidate B the identical
// configuration with one rank killed permanently mid-iteration and the
// world shrunk onto the survivors — and returns the obsdiff between
// them plus the shrink run's result. The profile is the recovery bill
// itemized per phase.
func diffCleanVsShrink(t *testing.T) (*obs.RunDiff, bfs.RootResult) {
	t.Helper()
	const scale = 12
	cfg := machine.Scaled(scale, scale+12)
	cfg.Nodes = 2
	cfg.SocketsPerNode = 4
	cfg.WeakNode = -1
	params := rmat.Graph500(scale)
	opts := bfs.DefaultOptions()
	opts.Opt = bfs.OptParAllgather

	recA := obs.NewRecorder()
	rA, err := bfs.NewRunner(cfg, machine.PPN8Bind, params, opts)
	if err != nil {
		t.Fatal(err)
	}
	rA.AttachObs(recA.NewSession("clean"))
	rA.Setup()
	root := params.Roots(1, rA.HasEdgeGlobal)[0]
	clean := rA.RunRoot(root)

	opts.Recovery = bfs.RecoverShrink
	recB := obs.NewRecorder()
	rB, err := bfs.NewRunner(cfg, machine.PPN8Bind, params, opts)
	if err != nil {
		t.Fatal(err)
	}
	rB.AttachObs(recB.NewSession("shrink"))
	rB.Setup()
	plan := fault.Plan{Crashes: []fault.Crash{
		{Rank: 1, AtNs: 0.5 * clean.TimeNs, Permanent: true},
	}}
	if err := rB.InjectFaults(plan); err != nil {
		t.Fatal(err)
	}
	res := rB.RunRoot(root)
	if len(res.Faults) != 1 || res.Epoch != 1 {
		t.Fatalf("shrink run survived %d fault(s) on epoch %d, want 1 on epoch 1", len(res.Faults), res.Epoch)
	}

	return obs.DiffRuns(recA.Dump(), recB.Dump()), res
}

// recoveryAttribution renders the deterministic core of the clean-vs-
// shrink diff: the recovery and re-own phases (charged analytically at
// rollback) and the run's fault/epoch summary. The rest of the diff —
// the doomed attempt's partial compute spans and byte counters — is
// just as reproducible (a failed job stops at quiescence, so how far
// each rank got is a function of the plan; see the fault-injection
// notes in README.md) but is not what this golden is about.
func recoveryAttribution(d *obs.RunDiff, res bfs.RootResult) string {
	var b strings.Builder
	s := d.Sessions[0]
	fmt.Fprintf(&b, "== %s -> %s: recovery attribution ==\n", s.LabelA, s.LabelB)
	for _, want := range []string{"recovery", "reown"} {
		for _, p := range s.Phases {
			if p.Name == want {
				fmt.Fprintf(&b, "%-10s A %.4fms   B %.4fms   delta %+.4fms\n",
					p.Name, p.ANs/1e6, p.BNs/1e6, p.DeltaNs/1e6)
			}
		}
	}
	fmt.Fprintf(&b, "faults %d  epoch %d  degraded virtual time %.4fms\n",
		len(res.Faults), res.Epoch, res.TimeNs/1e6)
	return b.String()
}

const diffShrinkGolden = "diff_shrink_golden.txt"

// TestObsdiffCleanVsShrinkGolden pins the deterministic recovery
// attribution of the clean-vs-shrink run diff byte for byte: after a
// permanent death the entire detection + rollback + restore bill lands
// in the recovery phase and the absorber's partition re-fetch in the
// re-own phase — both zero in the clean run. Regenerate with:
//
//	OBS_UPDATE_GOLDEN=1 go test ./internal/graph500 -run TestObsdiffCleanVsShrinkGolden
func TestObsdiffCleanVsShrinkGolden(t *testing.T) {
	d, res := diffCleanVsShrink(t)
	got := recoveryAttribution(d, res)
	for _, phase := range []string{"recovery", "reown"} {
		if !strings.Contains(got, phase) {
			t.Errorf("diff does not attribute any delta to the %s phase:\n%s", phase, got)
		}
	}
	// The attributed phases must be new cost: absent from the clean run,
	// paid by the shrink run.
	for _, p := range d.Sessions[0].Phases {
		if (p.Name == "recovery" || p.Name == "reown") && (p.ANs != 0 || p.BNs <= 0) {
			t.Errorf("phase %s: A=%g B=%g, want A=0 and B>0", p.Name, p.ANs, p.BNs)
		}
	}
	path := filepath.Join("testdata", diffShrinkGolden)
	if os.Getenv("OBS_UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (regenerate with OBS_UPDATE_GOLDEN=1): %v", err)
	}
	if got != string(want) {
		t.Errorf("clean vs shrink recovery attribution drifted from golden %s:\n--- got ---\n%s--- want ---\n%s", path, got, want)
	}
}

// TestObsdiffCleanVsShrinkDeterministic: the recovery attribution must
// be invariant under host parallelism, like the engines themselves.
func TestObsdiffCleanVsShrinkDeterministic(t *testing.T) {
	d1, r1 := diffCleanVsShrink(t)
	a := recoveryAttribution(d1, r1)
	old := runtime.GOMAXPROCS(1)
	d2, r2 := diffCleanVsShrink(t)
	b := recoveryAttribution(d2, r2)
	runtime.GOMAXPROCS(old)
	if a != b {
		t.Fatalf("recovery attribution differs under GOMAXPROCS=1:\n--- a ---\n%s--- b ---\n%s", a, b)
	}
}
