package graph500

import (
	"errors"
	"slices"
	"strings"
	"testing"

	"numabfs/internal/bfs"
	"numabfs/internal/bfs2d"
	"numabfs/internal/machine"
	"numabfs/internal/rmat"
	"numabfs/internal/wire"
)

func testConfig(scale int) Config {
	cfg := machine.Scaled(scale, scale+12)
	cfg.Nodes = 2
	cfg.SocketsPerNode = 4
	cfg.WeakNode = -1
	return Config{
		Machine:  cfg,
		Policy:   machine.PPN8Bind,
		Params:   rmat.Graph500(scale),
		Opts:     bfs.DefaultOptions(),
		NumRoots: 3,
		Validate: true,
	}
}

func TestRunValidatesAndAggregates(t *testing.T) {
	res, err := Run(testConfig(12))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PerRoot) != 3 {
		t.Fatalf("PerRoot = %d", len(res.PerRoot))
	}
	if res.HarmonicTEPS <= 0 || res.MeanTEPS <= 0 {
		t.Fatalf("TEPS: %+v", res)
	}
	if res.HarmonicTEPS > res.MeanTEPS+1e-6 {
		t.Fatalf("harmonic %g > mean %g", res.HarmonicTEPS, res.MeanTEPS)
	}
	if res.MinTEPS > res.MaxTEPS {
		t.Fatalf("min %g > max %g", res.MinTEPS, res.MaxTEPS)
	}
	if res.SetupNs <= 0 {
		t.Fatal("construction time missing")
	}
	if res.Breakdown.Total() <= 0 {
		t.Fatal("breakdown missing")
	}
	if !strings.Contains(res.String(), "harmonic TEPS") {
		t.Fatalf("String() = %q", res.String())
	}
}

func TestRunWithSingleRankPerNode(t *testing.T) {
	// ppn=1 degenerates every node-aware path (leader == only rank,
	// shared == private); the harness must still validate.
	cfg := testConfig(12)
	cfg.Policy = machine.PPN1Interleave
	for _, opt := range []bfs.Opt{bfs.OptOriginal, bfs.OptShareAll, bfs.OptParAllgather} {
		cfg.Opts.Opt = opt
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("opt %s: %v", opt, err)
		}
		if res.HarmonicTEPS <= 0 {
			t.Fatalf("opt %s: TEPS = %g", opt, res.HarmonicTEPS)
		}
	}
}

func TestRunGranularityOffGranuleBoundary(t *testing.T) {
	// 192 does not divide 4096 vertices: all but the first rank's summary
	// share clamps away to an empty range at the (unaligned) end of the
	// bitmap, which must skip the rebuild, not panic in RebuildRange.
	cfg := testConfig(12)
	cfg.Opts.Granularity = 192
	cfg.NumRoots = 2
	for opt := bfs.OptOriginal; opt <= bfs.OptOverlapAllgather; opt++ {
		cfg.Opts.Opt = opt
		if _, err := Run(cfg); err != nil {
			t.Fatalf("opt %s: %v", opt, err)
		}
	}
}

func TestRunDefaultsRoots(t *testing.T) {
	cfg := testConfig(12)
	cfg.NumRoots = 0
	cfg.Validate = false
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PerRoot) != DefaultRoots {
		t.Fatalf("defaulted to %d roots, want %d", len(res.PerRoot), DefaultRoots)
	}
}

// TestDrawRootsRejectsCountBelowOne: a negative count used to panic in
// rmat.Params.Roots; DrawRoots is the check every external count passes.
func TestDrawRootsRejectsCountBelowOne(t *testing.T) {
	params := rmat.Graph500(10)
	for _, n := range []int{0, -1} {
		if roots, err := DrawRoots(params, n, func(int64) bool { return true }); err == nil {
			t.Fatalf("DrawRoots(%d) = %v, want an error", n, roots)
		}
	}
}

func TestRunRejectsBadConfig(t *testing.T) {
	cfg := testConfig(12)
	cfg.Opts.Granularity = 63
	if _, err := Run(cfg); err == nil {
		t.Fatal("expected error for bad granularity")
	}
}

// TestRun2DRejectsBlockSizeForMode: the bottom-up modes of the 2-D
// engine need a block size divisible by 64; a grid that splits the
// graph finer is an error before kernel 1, not a panic in Setup.
func TestRun2DRejectsBlockSizeForMode(t *testing.T) {
	cfg := testConfig(9)
	cfg.Machine.SocketsPerNode = 8
	cfg.Grid = bfs2d.DefaultGrid(16) // 512 vertices over 16 cells: blocks of 32
	_, err := Run(cfg)
	if err == nil || !strings.Contains(err.Error(), "divisible by 64") {
		t.Fatalf("Run = %v, want the block-size error", err)
	}
}

// TestRun2DRejectsUnreadOptions: the 2-D engine reads only Mode, Opt and
// SpareRanks of Config.Opts, so any other field set away from its
// default is an error rather than a run that reports the default's
// numbers (and shares its cache entry).
func TestRun2DRejectsUnreadOptions(t *testing.T) {
	cases := []struct {
		name string
		mod  func(o *bfs.Options)
	}{
		{"Dedup", func(o *bfs.Options) { o.Dedup = false }},
		{"Alpha", func(o *bfs.Options) { o.Alpha = 14 }},
		{"Beta", func(o *bfs.Options) { o.Beta = 2 }},
		{"Granularity", func(o *bfs.Options) { o.Granularity = 256 }},
		{"Chunk", func(o *bfs.Options) { o.Chunk = 64 }},
		{"WireFormat", func(o *bfs.Options) { o.WireFormat = wire.FormatDense }},
		{"WireSparseDensity", func(o *bfs.Options) { o.WireSparseDensity = 0.1 }},
		{"OverlapSegments", func(o *bfs.Options) { o.OverlapSegments = 4 }},
		{"Recovery", func(o *bfs.Options) { o.Recovery = bfs.RecoverShrink }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cfg := testConfig(12)
			cfg.Grid = bfs2d.Grid{R: 2, C: 4}
			c.mod(&cfg.Opts)
			if _, err := Run(cfg); err == nil {
				t.Fatalf("2-D run with %s set accepted", c.name)
			}
		})
	}
}

func TestValidatorCatchesCorruptedTrees(t *testing.T) {
	cfg := testConfig(12)
	runner, err := bfs.NewRunner(cfg.Machine, cfg.Policy, cfg.Params, cfg.Opts)
	if err != nil {
		t.Fatal(err)
	}
	runner.Setup()
	root := cfg.Params.Roots(1, runner.HasEdgeGlobal)[0]
	runner.RunRoot(root)
	if err := ValidateRun(runner, root); err != nil {
		t.Fatalf("genuine tree rejected: %v", err)
	}

	// Corruption 1: break the root's self-parent.
	parents := runner.ParentArrays()
	own := cfg.Machine.Nodes * cfg.Machine.SocketsPerNode
	_ = own
	rootRank := runner.Part.Owner(root)
	lo, _ := runner.Part.Range(rootRank)
	orig := parents[rootRank][root-lo]
	parents[rootRank][root-lo] = -1
	if err := ValidateRun(runner, root); err == nil {
		t.Fatal("validator accepted a rootless tree")
	}
	parents[rootRank][root-lo] = orig

	// Corruption 2: point some visited vertex at a non-neighbour.
	found := false
corrupt:
	for rank, pa := range parents {
		rlo, _ := runner.Part.Range(rank)
		for i := range pa {
			v := rlo + int64(i)
			if pa[i] >= 0 && v != root && pa[i] != v {
				// Pick a parent that cannot be a neighbour of v: itself.
				pa[i] = v
				found = true
				break corrupt
			}
		}
	}
	if !found {
		t.Fatal("no vertex to corrupt")
	}
	if err := ValidateRun(runner, root); err == nil {
		t.Fatal("validator accepted a self-parented non-root vertex")
	}
}

func TestValidatorCatchesUnreachedNeighbour(t *testing.T) {
	// Rule 4: a visited vertex adjacent to an unvisited one means the
	// BFS stopped short of the component's edge — un-visiting one
	// interior vertex must be rejected.
	cfg := testConfig(12)
	runner, err := bfs.NewRunner(cfg.Machine, cfg.Policy, cfg.Params, cfg.Opts)
	if err != nil {
		t.Fatal(err)
	}
	runner.Setup()
	root := cfg.Params.Roots(1, runner.HasEdgeGlobal)[0]
	runner.RunRoot(root)

	// Un-visit some non-root vertex that has visited neighbours.
	parents := runner.ParentArrays()
	for rank, pa := range parents {
		lo, _ := runner.Part.Range(rank)
		for i := range pa {
			v := lo + int64(i)
			if pa[i] >= 0 && v != root {
				pa[i] = -1
				if err := ValidateRun(runner, root); err == nil {
					t.Fatal("validator accepted a hole in the visited set")
				}
				return
			}
		}
	}
	t.Fatal("no vertex to corrupt")
}

func TestLevelsMatchesRelaxation(t *testing.T) {
	cfg := testConfig(12)
	runner, err := bfs.NewRunner(cfg.Machine, cfg.Policy, cfg.Params, cfg.Opts)
	if err != nil {
		t.Fatal(err)
	}
	runner.Setup()
	root := cfg.Params.Roots(1, runner.HasEdgeGlobal)[0]
	res := runner.RunRoot(root)
	level := Levels(runner, root)
	var visited int64
	for _, l := range level {
		if l >= 0 {
			visited++
		}
	}
	if visited != res.Visited {
		t.Fatalf("Levels sees %d visited, runner reports %d", visited, res.Visited)
	}
	if level[root] != 0 {
		t.Fatalf("root level = %d", level[root])
	}
}

// TestDrawRootsChecksTheCount: exactly as many roots as there are rooted
// vertices is a valid draw (and equals rmat's); one more is
// ErrTooManyRoots — from DrawRoots and from Run — where Roots alone
// would panic.
func TestDrawRootsChecksTheCount(t *testing.T) {
	params := rmat.Graph500(8)
	hasEdge := func(v int64) bool { return v%4 == 1 } // 64 rooted vertices
	roots, err := DrawRoots(params, 64, hasEdge)
	if err != nil {
		t.Fatal(err)
	}
	if want := params.Roots(64, hasEdge); !slices.Equal(roots, want) {
		t.Fatalf("DrawRoots = %v, rmat draws %v", roots, want)
	}
	if _, err := DrawRoots(params, 65, hasEdge); !errors.Is(err, ErrTooManyRoots) {
		t.Fatalf("65 roots of 64 rooted vertices: err = %v", err)
	}
	cfg := testConfig(12)
	cfg.NumRoots = 1 << 12
	if _, err := Run(cfg); !errors.Is(err, ErrTooManyRoots) {
		t.Fatalf("Run with more roots than vertices: err = %v", err)
	}
}
