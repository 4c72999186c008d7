// Top-level benchmarks: one per table and figure of the paper's
// evaluation, each regenerating the corresponding rows via the drivers in
// internal/experiments (printed with -v through b.Log on first run), plus
// micro-benchmarks of the hot substrate operations.
//
// The figure benches are heavyweight (a whole simulated-cluster sweep per
// iteration); run them as
//
//	go test -bench=Fig -benchtime=1x
//
// For the full paper-shaped sweep at larger scale use cmd/bfsbench.
package numabfs_test

import (
	"sync"
	"testing"

	"numabfs"
	"numabfs/internal/bitmap"
	"numabfs/internal/collective"
	"numabfs/internal/experiments"
	"numabfs/internal/machine"
	"numabfs/internal/mpi"
)

// benchSpec sizes the figure benches: small enough for -benchtime=1x
// turnaround, same code paths as the full evaluation.
func benchSpec() experiments.Spec {
	return experiments.Spec{BaseScale: 13, Roots: 2, WeakNode: true}
}

// runFigure runs one experiment driver b.N times, logging the table once.
func runFigure(b *testing.B, fig func(experiments.Spec) (*experiments.Table, error)) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		t, err := fig(benchSpec())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + t.String())
		}
	}
}

func BenchmarkFig3CoreScaling(b *testing.B)      { runFigure(b, experiments.Fig3) }
func BenchmarkFig4Bandwidth(b *testing.B)        { runFigure(b, experiments.Fig4) }
func BenchmarkFig6LeaderAllgather(b *testing.B)  { runFigure(b, experiments.Fig6) }
func BenchmarkFig9Overview(b *testing.B)         { runFigure(b, experiments.Fig9) }
func BenchmarkFig10Policies(b *testing.B)        { runFigure(b, experiments.Fig10) }
func BenchmarkFig11Breakdown(b *testing.B)       { runFigure(b, experiments.Fig11) }
func BenchmarkFig12WeakScalingComm(b *testing.B) { runFigure(b, experiments.Fig12) }
func BenchmarkFig13CommReduction(b *testing.B)   { runFigure(b, experiments.Fig13) }
func BenchmarkFig14CommProportion(b *testing.B)  { runFigure(b, experiments.Fig14) }
func BenchmarkFig15WeakScaling(b *testing.B)     { runFigure(b, experiments.Fig15) }
func BenchmarkFig16Granularity(b *testing.B)     { runFigure(b, experiments.Fig16) }
func BenchmarkAlgorithmComparison(b *testing.B)  { runFigure(b, experiments.AlgorithmComparison) }
func BenchmarkExt2DPartitioning(b *testing.B)    { runFigure(b, experiments.Ext2D) }
func BenchmarkExtCompression(b *testing.B)       { runFigure(b, experiments.ExtCompression) }
func BenchmarkAblationAllgather(b *testing.B)    { runFigure(b, experiments.AblationAllgather) }
func BenchmarkAblationCompression(b *testing.B)  { runFigure(b, experiments.AblationCompression) }
func BenchmarkAblationHybrid(b *testing.B)       { runFigure(b, experiments.AblationHybrid) }

// BenchmarkBFS2DRoot measures one 2-D partitioned BFS iteration.
func BenchmarkBFS2DRoot(b *testing.B) {
	const scale = 14
	cfg := numabfs.ScaledCluster(scale, scale+12).WithNodes(2)
	cfg.WeakNode = -1
	grid := numabfs.DefaultGrid(2 * cfg.SocketsPerNode)
	r, err := numabfs.NewRunner2D(cfg, numabfs.PPN8Bind, grid, numabfs.Graph500Params(scale))
	if err != nil {
		b.Fatal(err)
	}
	r.Setup()
	root := r.Params.Roots(1, r.HasEdgeGlobal)[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := r.RunRoot(root)
		if res.Visited == 0 {
			b.Fatal("2-D BFS visited nothing")
		}
	}
}

// BenchmarkBFSRoot measures one full BFS iteration (host time) on a
// 2-node simulated cluster — the core end-to-end operation.
func BenchmarkBFSRoot(b *testing.B) {
	const scale = 14
	cfg := numabfs.ScaledCluster(scale, scale+12).WithNodes(2)
	cfg.WeakNode = -1
	opts := numabfs.DefaultOptions()
	opts.Opt = numabfs.OptParAllgather
	r, err := numabfs.NewRunner(cfg, numabfs.PPN8Bind, numabfs.Graph500Params(scale), opts)
	if err != nil {
		b.Fatal(err)
	}
	r.Setup()
	root := r.Params.Roots(1, r.HasEdgeGlobal)[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := r.RunRoot(root)
		if res.Visited == 0 {
			b.Fatal("BFS visited nothing")
		}
	}
}

// BenchmarkKernel1 measures Graph500 kernel 1 as every CLI run, uncached
// experiment cell and benchmark set-up pays it: NewRunner + Setup (R-MAT
// generation, owner routing, alltoallv, CSR build) on a 2-node cluster,
// for the 1-D and the 2-D engine. Its parts are timed next to their
// code: rmat's BenchmarkEdgeAt/BenchmarkEdges, graph's BenchmarkBuildCSR.
func BenchmarkKernel1(b *testing.B) {
	const scale = 16
	cfg := numabfs.ScaledCluster(scale, scale+12).WithNodes(2)
	cfg.WeakNode = -1
	params := numabfs.Graph500Params(scale)
	b.Run("1d", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			r, err := numabfs.NewRunner(cfg, numabfs.PPN8Bind, params, numabfs.DefaultOptions())
			if err != nil {
				b.Fatal(err)
			}
			r.Setup()
		}
	})
	b.Run("2d", func(b *testing.B) {
		b.ReportAllocs()
		grid := numabfs.DefaultGrid(2 * cfg.SocketsPerNode)
		for i := 0; i < b.N; i++ {
			r, err := numabfs.NewRunner2D(cfg, numabfs.PPN8Bind, grid, params)
			if err != nil {
				b.Fatal(err)
			}
			r.Setup()
		}
	})
}

// BenchmarkBitmapCheck measures the bottom-up inner loop's primitive:
// a summary check followed by an in_queue probe.
func BenchmarkBitmapCheck(b *testing.B) {
	const n = 1 << 20
	bm := bitmap.New(n)
	for i := int64(0); i < n; i += 97 {
		bm.Set(i)
	}
	sum := bitmap.NewSummary(n, 256)
	sum.Rebuild(bm)
	b.ResetTimer()
	var hits int
	for i := 0; i < b.N; i++ {
		u := int64(i*31) & (n - 1)
		if !sum.CoveredZero(u) && bm.Get(u) {
			hits++
		}
	}
	_ = hits
}

// BenchmarkBitmapAppendSetBits measures frontier extraction — the
// bottom-up -> top-down switch scans the owned in_queue segment into the
// vertex queue. With reused scratch this is allocation-free.
func BenchmarkBitmapAppendSetBits(b *testing.B) {
	const n = 1 << 20
	bm := bitmap.New(n)
	for i := int64(0); i < n; i += 97 {
		bm.Set(i)
	}
	queue := make([]int64, 0, n/97+1)
	b.SetBytes(n / 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		queue = bm.AppendSetBits(queue[:0], 0, n)
	}
	_ = queue
}

// BenchmarkSummaryRebuild measures the per-level summary reconstruction.
func BenchmarkSummaryRebuild(b *testing.B) {
	const n = 1 << 20
	bm := bitmap.New(n)
	for i := int64(0); i < n; i += 311 {
		bm.Set(i)
	}
	sum := bitmap.NewSummary(n, 64)
	b.SetBytes(n / 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sum.Rebuild(bm)
	}
}

// BenchmarkAllgatherRing measures the steady-state simulated 128-rank
// ring allgather: host time and allocations per collective, including
// the real data movement. The world, the group, its stream tables and
// the 128 private buffers are built once and a warm-up run fills the
// per-rank message pools before the timer starts; each iteration is one
// World.Run (128 goroutine spawns — the fixed per-run overhead the
// allocation figure still contains) around one collective.
func BenchmarkAllgatherRing(b *testing.B) {
	cfg := machine.TableI()
	cfg.WeakNode = -1
	pl := machine.PlacementFor(cfg, machine.PPN8Bind)
	const words = 1 << 14
	w := mpi.NewWorld(cfg, pl)
	g := collective.WorldGroup(w)
	l := collective.EvenLayout(words, g.Size())
	bufs := make([][]uint64, w.NumProcs())
	for r := range bufs {
		bufs[r] = make([]uint64, words)
	}
	body := func(p *mpi.Proc) { g.AllgatherRing(p, bufs[p.Rank()], l) }
	w.Run(body)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Run(body)
	}
}

// BenchmarkVirtualSendRecv measures the rendezvous machinery itself: two
// ranks driven from bare goroutines (no World.Run), one blocking Send
// matched by one Recv per iteration. The pair is warmed up first so the
// sender's message pool is populated before the timer starts.
func BenchmarkVirtualSendRecv(b *testing.B) {
	cfg := machine.TableI()
	cfg.Nodes = 2
	cfg.WeakNode = -1
	pl := machine.PlacementFor(cfg, machine.PPN8Bind)
	w := mpi.NewWorld(cfg, pl)
	exchange := func(n int) {
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			p := w.Proc(0)
			for i := 0; i < n; i++ {
				p.Send(1, i, 64, nil, 1)
			}
		}()
		p := w.Proc(1)
		for i := 0; i < n; i++ {
			p.Recv(0, i)
		}
		wg.Wait()
	}
	exchange(16)
	b.ReportAllocs()
	b.ResetTimer()
	exchange(b.N)
}
