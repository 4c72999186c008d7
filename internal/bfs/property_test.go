package bfs

import (
	"testing"
	"testing/quick"

	"numabfs/internal/machine"
	"numabfs/internal/rmat"
	"numabfs/internal/trace"
)

// TestAllVariantsAgreeOnReachabilityProperty: for random seeds, every
// optimization level visits the same vertex set and traverses the same
// edges — the optimizations change communication structure, never the
// algorithm's result.
func TestAllVariantsAgreeOnReachabilityProperty(t *testing.T) {
	f := func(seed uint64) bool {
		const scale = 11
		params := rmat.Graph500(scale).WithSeed(seed%1000 + 1)
		var visited, edges int64
		for _, opt := range []Opt{OptOriginal, OptShareInQueue, OptShareAll, OptParAllgather, OptCompressedAllgather} {
			opts := DefaultOptions()
			opts.Opt = opt
			r := setUp(t, testConfig(scale, 2, 4), machine.PPN8Bind, params, opts)
			root := params.Roots(1, r.HasEdgeGlobal)[0]
			res := r.RunRoot(root)
			if opt == OptOriginal {
				visited, edges = res.Visited, res.TraversedEdges
				continue
			}
			if res.Visited != visited || res.TraversedEdges != edges {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 6}); err != nil {
		t.Fatal(err)
	}
}

// TestLevelStatsConsistent: the recorded per-level frontier sizes must
// sum to the visited count (minus the root) and MF to the visited edge
// degrees; levels alternate modes coherently.
func TestLevelStatsConsistent(t *testing.T) {
	const scale = 14
	params := rmat.Graph500(scale)
	r := setUp(t, testConfig(scale, 2, 4), machine.PPN8Bind, params, DefaultOptions())
	root := params.Roots(1, r.HasEdgeGlobal)[0]
	res := r.RunRoot(root)

	if len(res.LevelStats) == 0 {
		t.Fatal("no level stats recorded")
	}
	var nfSum int64 = 1 // the root
	for i, ls := range res.LevelStats {
		nfSum += ls.NF
		if ls.Level != i+1 {
			t.Errorf("level %d recorded as %d", i+1, ls.Level)
		}
		if ls.Ns <= 0 {
			t.Errorf("level %d has non-positive time", ls.Level)
		}
	}
	if nfSum != res.Visited {
		t.Errorf("level NF sum %d != visited %d", nfSum, res.Visited)
	}
	// Hybrid order: top-down first, then a bottom-up block, then (maybe)
	// top-down again — never bu->td->bu.
	transitions := 0
	for i := 1; i < len(res.LevelStats); i++ {
		if res.LevelStats[i].BottomUp != res.LevelStats[i-1].BottomUp {
			transitions++
		}
	}
	if transitions > 2 {
		t.Errorf("%d mode transitions; hybrid should have at most 2", transitions)
	}
}

// TestStallAndSwitchAccounted: the breakdown's phases are all
// non-negative and sum to the per-rank totals.
func TestStallAndSwitchAccounted(t *testing.T) {
	const scale = 13
	params := rmat.Graph500(scale)
	r := setUp(t, testConfig(scale, 2, 4), machine.PPN8Bind, params, DefaultOptions())
	root := params.Roots(1, r.HasEdgeGlobal)[0]
	res := r.RunRoot(root)
	for p := trace.Phase(0); p < trace.NumPhases; p++ {
		if res.Breakdown.Ns[p] < 0 {
			t.Errorf("phase %s negative: %g", p, res.Breakdown.Ns[p])
		}
	}
	// The mean breakdown total cannot exceed the slowest rank's time and
	// must be most of it (phases cover the whole level loop).
	if tot := res.Breakdown.Total(); tot > res.TimeNs*1.001 || tot < res.TimeNs*0.5 {
		t.Errorf("breakdown total %g vs iteration time %g", tot, res.TimeNs)
	}
}

// TestCommBytesScaleWithOptLevel: sharing reduces measured communication
// volume (the gather/broadcast bytes disappear).
func TestCommBytesScaleWithOptLevel(t *testing.T) {
	const scale = 13
	params := rmat.Graph500(scale)
	get := func(opt Opt) int64 {
		opts := DefaultOptions()
		opts.Opt = opt
		r := setUp(t, testConfig(scale, 4, 8), machine.PPN8Bind, params, opts)
		root := params.Roots(1, r.HasEdgeGlobal)[0]
		return r.RunRoot(root).CommBytes
	}
	orig := get(OptOriginal)
	shareAll := get(OptShareAll)
	par := get(OptParAllgather)
	if !(shareAll < orig) {
		t.Errorf("share-all volume %d not below original %d", shareAll, orig)
	}
	if !(par < orig) {
		t.Errorf("par volume %d not below original %d", par, orig)
	}
}

// TestPolicyOrderingRegression pins the single-node policy ordering of
// Fig. 10: bind > interleave > noflag, and bind > unbound ppn=8.
func TestPolicyOrderingRegression(t *testing.T) {
	const scale = 13
	params := rmat.Graph500(scale)
	teps := map[machine.Policy]float64{}
	for _, pol := range []machine.Policy{
		machine.PPN1NoFlag, machine.PPN1Interleave, machine.PPN8NoFlag, machine.PPN8Bind,
	} {
		r := setUp(t, testConfig(scale, 1, 8), pol, params, DefaultOptions())
		root := params.Roots(1, r.HasEdgeGlobal)[0]
		res := r.RunRoot(root)
		teps[pol] = res.TEPS
	}
	if !(teps[machine.PPN8Bind] > teps[machine.PPN1Interleave]) {
		t.Errorf("bind (%.3e) must beat interleave (%.3e)", teps[machine.PPN8Bind], teps[machine.PPN1Interleave])
	}
	if !(teps[machine.PPN1Interleave] > teps[machine.PPN1NoFlag]) {
		t.Errorf("interleave (%.3e) must beat noflag (%.3e)", teps[machine.PPN1Interleave], teps[machine.PPN1NoFlag])
	}
	if !(teps[machine.PPN8Bind] > teps[machine.PPN8NoFlag]) {
		t.Errorf("bind (%.3e) must beat unbound ppn=8 (%.3e)", teps[machine.PPN8Bind], teps[machine.PPN8NoFlag])
	}
}

// TestWeakNodeSlowsCluster: enabling the testbed's weak node can only
// slow the 16-node run down.
func TestWeakNodeSlowsCluster(t *testing.T) {
	const scale = 13
	params := rmat.Graph500(scale)
	run := func(weak int) float64 {
		cfg := testConfig(scale, 4, 4)
		cfg.WeakNode = weak
		r := setUp(t, cfg, machine.PPN8Bind, params, DefaultOptions())
		root := params.Roots(1, r.HasEdgeGlobal)[0]
		return r.RunRoot(root).TimeNs
	}
	healthy := run(-1)
	weak := run(3)
	if weak <= healthy {
		t.Errorf("weak node run (%g) not slower than healthy (%g)", weak, healthy)
	}
}
