package numabfs_test

import (
	"testing"

	"numabfs"
)

func TestPublicAPIEndToEnd(t *testing.T) {
	const scale = 13
	cfg := numabfs.ScaledCluster(scale, scale+12).WithNodes(2)
	cfg.WeakNode = -1
	res, err := numabfs.Run(numabfs.Benchmark{
		Machine:  cfg,
		Policy:   numabfs.PPN8Bind,
		Params:   numabfs.Graph500Params(scale),
		Opts:     numabfs.DefaultOptions(),
		NumRoots: 2,
		Validate: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.HarmonicTEPS <= 0 {
		t.Fatalf("TEPS = %g", res.HarmonicTEPS)
	}
}

func TestPublicRunnerAndValidate(t *testing.T) {
	const scale = 13
	cfg := numabfs.ScaledCluster(scale, scale+12).WithNodes(2)
	cfg.WeakNode = -1
	opts := numabfs.DefaultOptions()
	opts.Opt = numabfs.OptShareAll
	r, err := numabfs.NewRunner(cfg, numabfs.PPN8Bind, numabfs.Graph500Params(scale), opts)
	if err != nil {
		t.Fatal(err)
	}
	r.Setup()
	root := r.Params.Roots(1, r.HasEdgeGlobal)[0]
	res := r.RunRoot(root)
	if res.Visited <= 0 {
		t.Fatal("nothing visited")
	}
	if err := numabfs.Validate(r, root); err != nil {
		t.Fatal(err)
	}
}

func TestOptimizationsImproveTEPS(t *testing.T) {
	// The paper's core claim, as a regression test: on a multi-node
	// cluster, the fully optimized configuration beats the ppn=1
	// baseline, and the bound ppn=8 mapping beats unbound placement.
	const scale = 14
	cfg := numabfs.ScaledCluster(scale, scale+12).WithNodes(4)
	cfg.WeakNode = -1
	params := numabfs.Graph500Params(scale)

	teps := func(pol numabfs.Policy, opt numabfs.OptLevel, g int64) float64 {
		o := numabfs.DefaultOptions()
		o.Opt = opt
		o.Granularity = g
		res, err := numabfs.Run(numabfs.Benchmark{
			Machine: cfg, Policy: pol, Params: params, Opts: o, NumRoots: 3,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.HarmonicTEPS
	}

	base := teps(numabfs.PPN1Interleave, numabfs.OptOriginal, 64)
	bind := teps(numabfs.PPN8Bind, numabfs.OptOriginal, 64)
	best := teps(numabfs.PPN8Bind, numabfs.OptParAllgather, 256)

	if bind <= base {
		t.Errorf("binding (%.3e) did not beat interleave (%.3e)", bind, base)
	}
	if best <= bind {
		t.Errorf("full optimizations (%.3e) did not beat Original.ppn=8 (%.3e)", best, bind)
	}
	if best/base < 1.3 {
		t.Errorf("overall speedup %.2fx, want the paper-like >1.3x at this size", best/base)
	}
}

// TestPublicEnginesSideBySide drives the 2-D facade next to the 1-D one
// on the same graph and cluster: both engines reach the same vertices
// and traverse the same edges from every root, both trees validate, and
// the 2-D layout moves fewer bytes than a 1-D pure top-down traversal
// (Buluç & Madduri).
func TestPublicEnginesSideBySide(t *testing.T) {
	const scale, nodes = 13, 4
	cfg := numabfs.ScaledCluster(scale, scale+12).WithNodes(nodes)
	cfg.WeakNode = -1
	params := numabfs.Graph500Params(scale)
	opts := numabfs.DefaultOptions()
	opts.Mode = numabfs.ModeTopDown
	oneD, err := numabfs.NewRunner(cfg, numabfs.PPN8Bind, params, opts)
	if err != nil {
		t.Fatal(err)
	}
	oneD.Setup()
	twoD, err := numabfs.NewRunner2D(cfg, numabfs.PPN8Bind, numabfs.DefaultGrid(nodes*cfg.SocketsPerNode), params)
	if err != nil {
		t.Fatal(err)
	}
	twoD.Setup()
	var bytes1, bytes2 int64
	for _, root := range params.Roots(2, oneD.HasEdgeGlobal) {
		r1, r2 := oneD.RunRoot(root), twoD.RunRoot(root)
		if err := numabfs.Validate(oneD, root); err != nil {
			t.Fatal(err)
		}
		if err := numabfs.Validate2D(twoD, root); err != nil {
			t.Fatal(err)
		}
		if r1.Visited != r2.Visited || r1.TraversedEdges != r2.TraversedEdges {
			t.Errorf("root %d: 1-D visited %d / %d edges, 2-D %d / %d",
				root, r1.Visited, r1.TraversedEdges, r2.Visited, r2.TraversedEdges)
		}
		bytes1 += r1.CommBytes
		bytes2 += r2.CommBytes
	}
	if bytes2 >= bytes1 {
		t.Errorf("2-D moved %d bytes, not below 1-D top-down's %d", bytes2, bytes1)
	}
}
