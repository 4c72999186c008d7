package graph500

import (
	"sync"
	"testing"

	"numabfs/internal/bfs"
	"numabfs/internal/bfs2d"
	"numabfs/internal/chassis"
	"numabfs/internal/machine"
	"numabfs/internal/rmat"
)

// TestGraphCacheBitIdentical: a cache hit must reproduce the uncached
// run exactly — same TEPS, same construction time, same per-root trees —
// while the counters record the reuse, and a config differing in any key
// component must miss.
func TestGraphCacheBitIdentical(t *testing.T) {
	const scale = 12
	cfg := machine.Scaled(scale, scale+12)
	cfg.Nodes = 2
	cfg.WeakNode = -1
	base := Config{
		Machine:  cfg,
		Policy:   machine.PPN8Bind,
		Params:   rmat.Graph500(scale),
		Opts:     bfs.DefaultOptions(),
		NumRoots: 2,
		Validate: true,
	}

	plain, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}

	cache := chassis.NewGraphCache()
	withCache := base
	withCache.Cache = cache
	miss, err := Run(withCache)
	if err != nil {
		t.Fatal(err)
	}
	hit, err := Run(withCache)
	if err != nil {
		t.Fatal(err)
	}

	if h, m := cache.Stats(); h != 1 || m != 1 {
		t.Fatalf("cache counters: hits=%d misses=%d, want 1/1", h, m)
	}
	for i, res := range []*Result{miss, hit} {
		if res.HarmonicTEPS != plain.HarmonicTEPS || res.MeanTimeNs != plain.MeanTimeNs {
			t.Errorf("run %d: TEPS/time differ from uncached: %g/%g vs %g/%g",
				i, res.HarmonicTEPS, res.MeanTimeNs, plain.HarmonicTEPS, plain.MeanTimeNs)
		}
		if res.SetupNs != plain.SetupNs {
			t.Errorf("run %d: SetupNs %g, want %g", i, res.SetupNs, plain.SetupNs)
		}
		if res.PerRoot[0].Root != plain.PerRoot[0].Root {
			t.Errorf("run %d: root selection changed: %d vs %d", i, res.PerRoot[0].Root, plain.PerRoot[0].Root)
		}
	}

	// A different optimization level reuses the same graph (dedup and
	// params unchanged): second hit.
	lvl := withCache
	lvl.Opts.Opt = bfs.OptParAllgather
	if _, err := Run(lvl); err != nil {
		t.Fatal(err)
	}
	if h, m := cache.Stats(); h != 2 || m != 1 {
		t.Fatalf("cache counters after level change: hits=%d misses=%d, want 2/1", h, m)
	}

	// Changing a key component (dedup) must miss and build fresh.
	ded := withCache
	ded.Opts.Dedup = !ded.Opts.Dedup
	if _, err := Run(ded); err != nil {
		t.Fatal(err)
	}
	if h, m := cache.Stats(); h != 2 || m != 2 {
		t.Fatalf("cache counters after dedup change: hits=%d misses=%d, want 2/2", h, m)
	}
}

// TestGraphCache2D: a 2-D cache hit reproduces the uncached 2-D run,
// SetupNs included; and the grid is part of the key. At 8 ranks a 1-D
// partition and a 2x4 grid both hold 8 CSRs, so without the grid in
// GraphKey the 2-D run would install the 1-D graph.
func TestGraphCache2D(t *testing.T) {
	const scale = 12
	cfg := machine.Scaled(scale, scale+12)
	cfg.Nodes = 2
	cfg.SocketsPerNode = 4
	cfg.WeakNode = -1
	base := Config{
		Machine:  cfg,
		Policy:   machine.PPN8Bind,
		Params:   rmat.Graph500(scale),
		Opts:     bfs.DefaultOptions(),
		NumRoots: 2,
		Validate: true,
	}
	grid := base
	grid.Grid = bfs2d.Grid{R: 2, C: 4}
	plain, err := Run(grid)
	if err != nil {
		t.Fatal(err)
	}
	same := func(name string, res *Result) {
		t.Helper()
		if res.HarmonicTEPS != plain.HarmonicTEPS || res.MeanTimeNs != plain.MeanTimeNs || res.SetupNs != plain.SetupNs {
			t.Errorf("%s: TEPS/time/setup %g/%g/%g, uncached %g/%g/%g", name,
				res.HarmonicTEPS, res.MeanTimeNs, res.SetupNs, plain.HarmonicTEPS, plain.MeanTimeNs, plain.SetupNs)
		}
	}

	grid.Cache = chassis.NewGraphCache()
	for _, name := range []string{"miss", "hit"} {
		res, err := Run(grid)
		if err != nil {
			t.Fatal(err)
		}
		same(name, res)
	}
	if h, m := grid.Cache.Stats(); h != 1 || m != 1 {
		t.Fatalf("cache counters: hits=%d misses=%d, want 1/1", h, m)
	}

	cache := chassis.NewGraphCache()
	base.Cache, grid.Cache = cache, cache
	if _, err := Run(base); err != nil {
		t.Fatal(err)
	}
	res, err := Run(grid)
	if err != nil {
		t.Fatal(err)
	}
	same("2-D after 1-D", res)
	if h, m := cache.Stats(); h != 0 || m != 2 {
		t.Fatalf("cache counters after 1-D then 2-D: hits=%d misses=%d, want 0/2", h, m)
	}
}

// TestGraphCacheSingleflight: concurrent requesters of one key must
// produce exactly one build (one miss, n-1 hits) with every follower
// receiving the leader's CSRs — the property that keeps cache counters
// and results deterministic under the parallel experiment runner.
func TestGraphCacheSingleflight(t *testing.T) {
	const scale = 12
	cfg := machine.Scaled(scale, scale+12)
	cfg.Nodes = 2
	cfg.WeakNode = -1
	base := Config{
		Machine:  cfg,
		Policy:   machine.PPN8Bind,
		Params:   rmat.Graph500(scale),
		Opts:     bfs.DefaultOptions(),
		NumRoots: 1,
		Cache:    chassis.NewGraphCache(),
	}

	const n = 4
	results := make([]*Result, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = Run(base)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
	}
	if h, m := base.Cache.Stats(); h != n-1 || m != 1 {
		t.Fatalf("cache counters: hits=%d misses=%d, want %d/1", h, m, n-1)
	}
	for i := 1; i < n; i++ {
		if results[i].HarmonicTEPS != results[0].HarmonicTEPS || results[i].SetupNs != results[0].SetupNs {
			t.Fatalf("run %d diverged: TEPS %g vs %g, SetupNs %g vs %g", i,
				results[i].HarmonicTEPS, results[0].HarmonicTEPS, results[i].SetupNs, results[0].SetupNs)
		}
	}
}
