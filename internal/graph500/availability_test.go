package graph500

import (
	"runtime"
	"testing"

	"numabfs/internal/bfs"
	"numabfs/internal/chassis"
	"numabfs/internal/fault"
)

// TestPermanentCrashCompletesAtScale16 is the acceptance test for
// degraded-mode completion: a rank dies permanently mid-iteration at
// scale 16 and the run must finish — under both the shrink and the
// hot-spare policy, at every cumulative optimization level — with the
// resulting BFS tree passing the full Graph500 validation, the world
// epoch stepped exactly once, and a positive modelled MTTR. Each
// configuration is run twice (and one of them under a different
// GOMAXPROCS) to pin down bit-identical virtual-time results: recovery
// is part of the simulation, not of the host schedule. The kernel-1
// cache is shared across all configurations, so the graph builds once
// per spare reservation.
func TestPermanentCrashCompletesAtScale16(t *testing.T) {
	const scale = 16
	cache := chassis.NewGraphCache()

	// Probe the clean mean iteration to place the crash mid-run.
	probe := testConfig(scale)
	probe.NumRoots = 1
	probe.Validate = false
	probe.Cache = cache
	base, err := Run(probe)
	if err != nil {
		t.Fatal(err)
	}
	at := 0.5 * base.MeanTimeNs

	levels := []bfs.Opt{
		bfs.OptOriginal, bfs.OptShareInQueue, bfs.OptShareAll,
		bfs.OptParAllgather, bfs.OptCompressedAllgather,
	}
	policies := []struct {
		name     string
		recovery bfs.Recovery
		spares   int
	}{
		{"shrink", bfs.RecoverShrink, 0},
		{"spare", bfs.RecoverSpare, 1},
	}

	run := func(opt bfs.Opt, pol int) *Result {
		cfg := testConfig(scale)
		cfg.NumRoots = 1
		cfg.Cache = cache
		cfg.Opts.Opt = opt
		cfg.Opts.Recovery = policies[pol].recovery
		cfg.Opts.SpareRanks = policies[pol].spares
		// Rank 1 is active under both reservations (spares are the last
		// rank of each node).
		plan := fault.Plan{Crashes: []fault.Crash{{Rank: 1, AtNs: at, Permanent: true}}}
		cfg.Faults = &plan
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s/%s: %v", opt, policies[pol].name, err)
		}
		return res
	}

	for pi, pol := range policies {
		for _, opt := range levels {
			res := run(opt, pi)
			if res.Faults != 1 {
				t.Fatalf("%s/%s: %d crash(es) fired, want 1", opt, pol.name, res.Faults)
			}
			if res.MTTRNs <= 0 {
				t.Errorf("%s/%s: MTTR %g, want positive", opt, pol.name, res.MTTRNs)
			}
			if ep := res.PerRoot[0].Epoch; ep != 1 {
				t.Errorf("%s/%s: finished on epoch %d, want 1 (one %s surgery)", opt, pol.name, ep, pol.name)
			}
			if res.HarmonicTEPS <= 0 {
				t.Errorf("%s/%s: TEPS %g", opt, pol.name, res.HarmonicTEPS)
			}

			// Bit-identical repeat: virtual time, repair time and the
			// traversal must not depend on the host schedule.
			rep := run(opt, pi)
			a, b := res.PerRoot[0], rep.PerRoot[0]
			if a.TimeNs != b.TimeNs || a.TEPS != b.TEPS ||
				res.MTTRNs != rep.MTTRNs ||
				a.Visited != b.Visited || a.TraversedEdges != b.TraversedEdges ||
				a.Levels != b.Levels {
				t.Errorf("%s/%s: repeat diverged: %+v vs %+v (MTTR %g vs %g)",
					opt, pol.name, a, b, res.MTTRNs, rep.MTTRNs)
			}
		}
	}

	// One configuration per policy again under a different host width:
	// GOMAXPROCS must not leak into the recovery path either.
	prev := runtime.GOMAXPROCS(2)
	defer runtime.GOMAXPROCS(prev)
	for pi, pol := range policies {
		res := run(bfs.OptParAllgather, pi)
		ref := func() *Result {
			runtime.GOMAXPROCS(prev)
			defer runtime.GOMAXPROCS(2)
			return run(bfs.OptParAllgather, pi)
		}()
		if res.PerRoot[0].TimeNs != ref.PerRoot[0].TimeNs || res.MTTRNs != ref.MTTRNs {
			t.Errorf("%s: GOMAXPROCS changed the recovered run: time %g vs %g, MTTR %g vs %g",
				pol.name, res.PerRoot[0].TimeNs, ref.PerRoot[0].TimeNs, res.MTTRNs, ref.MTTRNs)
		}
	}
}
