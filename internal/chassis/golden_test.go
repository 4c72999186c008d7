package chassis_test

// Identity goldens for the engine chassis refactor. Every case drives an
// engine through its public API only and folds what a traversal reports
// — TimeNs and every Breakdown phase as float bits, the network volumes,
// the level structure and the parent arrays — into one FNV-1a hash. The
// hashes were captured with this very file on the commit before
// internal/chassis existed (three hand-aligned Runners); the chassis
// must reproduce them bit for bit. The crash cases were re-captured once
// since, when mpi began to abort a failed job at quiescence: how far a
// doomed attempt gets is a function of the plan from then on, so its
// traffic joined the hash (every other field of theirs was unchanged).
// The 1-D crash cases were re-captured again when level checkpoints and
// survivor shrink were removed: every crash now reruns from the root,
// and each of those cases also checks its parents against the clean
// tree.

import (
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"slices"
	"testing"

	"numabfs/internal/bfs"
	"numabfs/internal/bfs2d"
	"numabfs/internal/fault"
	"numabfs/internal/machine"
	"numabfs/internal/msbfs"
	"numabfs/internal/rmat"
	"numabfs/internal/trace"
)

const goldenScale = 12

func goldenConfig() machine.Config {
	cfg := machine.Scaled(goldenScale, goldenScale+12)
	cfg.Nodes, cfg.SocketsPerNode, cfg.WeakNode = 2, 4, -1
	return cfg
}

// traversal is the part of a result the goldens pin, named field by
// field so the same file compiled against the pre-chassis result types.
type traversal struct {
	timeNs     float64
	bd         trace.Breakdown
	comm, raw  int64 // lost attempts' traffic included
	levels     int
	levelStats []trace.LevelStat
	mttrNs     float64
	epoch      int
	parents    [][]int64
}

func (tr traversal) hash() uint64 {
	h := fnv.New64a()
	put := func(v uint64) {
		var b [8]byte
		for i := range b {
			b[i] = byte(v >> (8 * i))
		}
		h.Write(b[:])
	}
	put(math.Float64bits(tr.timeNs))
	for _, ns := range tr.bd.Ns {
		put(math.Float64bits(ns))
	}
	put(math.Float64bits(tr.bd.OverlapExposedNs))
	put(uint64(tr.bd.TDLevels)<<40 | uint64(tr.bd.BULevels)<<20 | uint64(tr.bd.BUCommCount))
	put(uint64(tr.comm))
	put(uint64(tr.raw))
	put(uint64(tr.levels))
	for _, ls := range tr.levelStats {
		bu := uint64(0)
		if ls.BottomUp {
			bu = 1
		}
		put(uint64(ls.Level)<<1 | bu)
		put(uint64(ls.NF))
		put(uint64(ls.MF))
		put(math.Float64bits(ls.Ns))
	}
	put(math.Float64bits(tr.mttrNs))
	put(uint64(tr.epoch))
	for _, pa := range tr.parents {
		put(uint64(len(pa)))
		for _, v := range pa {
			put(uint64(v))
		}
	}
	return h.Sum64()
}

func checkGolden(t *testing.T, name string, got uint64, want map[string]uint64) {
	t.Helper()
	if w, ok := want[name]; !ok {
		t.Errorf("%q: %#x,", name, got)
	} else if got != w {
		t.Errorf("%s: hash %#x, want %#x — a virtual number or a parent moved", name, got, w)
	}
}

func bfsRunner(t *testing.T, opts bfs.Options) (*bfs.Runner, int64) {
	t.Helper()
	params := rmat.Graph500(goldenScale)
	r, err := bfs.NewRunner(goldenConfig(), machine.PPN8Bind, params, opts)
	if err != nil {
		t.Fatal(err)
	}
	r.Setup()
	return r, params.Roots(1, r.HasEdgeGlobal)[0]
}

// bfsTraversal is what the goldens pin of a 1-D run (a clean one has no
// repair time and stays on epoch 0).
func bfsTraversal(r *bfs.Runner, res bfs.RootResult) traversal {
	return traversal{
		timeNs: res.TimeNs, bd: res.Breakdown, comm: res.CommBytes, raw: res.RawCommBytes,
		levels: res.Levels, levelStats: res.LevelStats,
		mttrNs: res.MTTRNs, epoch: res.Epoch, parents: r.ParentArrays(),
	}
}

var goldenBFS = map[string]uint64{
	"clean/Original":              0x7ce167ee9bc06d7,
	"clean/Share in_queue":        0xee63399657111324,
	"clean/Share all":             0x6234a01b5468f25a,
	"clean/Par allgather":         0xa073077205c66d98,
	"clean/Compressed allgather":  0x5695a040f0b6210e,
	"clean/Overlap allgather":     0x89fc67aa735e3f55,
	"crash/rerun/permanent=true":  0x2123b9d26392c506,
	"crash/rerun/permanent=false": 0xfb78f1701c4ee0b7,
	"crash/spare/permanent=true":  0x2097c3b5ade2fd33,
	"crash/spare/permanent=false": 0xd249cf9bb8638b35,
	"crash/spare/two":             0x50d663586e3bb16,
}

// sameParents fails t unless r holds exactly clean's parent arrays.
func sameParents(t *testing.T, name string, r, clean *bfs.Runner) {
	t.Helper()
	want := clean.ParentArrays()
	for pos, pa := range r.ParentArrays() {
		if !slices.Equal(pa, want[pos]) {
			t.Fatalf("%s: parent array of position %d differs from the clean run's", name, pos)
		}
	}
}

// TestGoldenBFS: the 1-D engine, clean at all six optimization levels,
// and one permanent and one transient mid-run crash without and with a
// hot spare per node. Every crash reruns from the root, after a spare
// promotion for the permanent death when one is parked, so each crashed
// run's parent arrays are the clean run's.
func TestGoldenBFS(t *testing.T) {
	for opt := bfs.OptOriginal; opt <= bfs.OptOverlapAllgather; opt++ {
		opts := bfs.DefaultOptions()
		opts.Opt = opt
		r, root := bfsRunner(t, opts)
		res := r.RunRoot(root)
		checkGolden(t, "clean/"+opt.String(), bfsTraversal(r, res).hash(), goldenBFS)
	}
	for _, pol := range []struct {
		name   string
		spares int
	}{{"rerun", 0}, {"spare", 1}} {
		opts := bfs.DefaultOptions()
		opts.Opt = bfs.OptCompressedAllgather
		opts.SpareRanks = pol.spares
		clean, root := bfsRunner(t, opts)
		cleanNs := clean.RunRoot(root).TimeNs
		for _, permanent := range []bool{true, false} {
			name := fmt.Sprintf("crash/%s/permanent=%v", pol.name, permanent)
			r, _ := bfsRunner(t, opts)
			plan := fault.Plan{Crashes: []fault.Crash{{Rank: 2, AtNs: 0.5 * cleanNs, Permanent: permanent}}}
			if err := r.InjectFaults(plan); err != nil {
				t.Fatal(err)
			}
			res := r.RunRoot(root)
			if len(res.Faults) != 1 {
				t.Fatalf("%s: %d faults survived, want 1", name, len(res.Faults))
			}
			sameParents(t, name, r, clean)
			checkGolden(t, name, bfsTraversal(r, res).hash(), goldenBFS)
		}
	}
}

// TestGoldenBFSTwoCrashes: two permanent crashes 2 % of the clean time
// apart, on different nodes, each promoting its node's spare. Which of
// them a doomed attempt reports first — and with it the promotion
// order, the re-own transfers and TimeNs — must be the earlier one on
// every host schedule.
func TestGoldenBFSTwoCrashes(t *testing.T) {
	opts := bfs.DefaultOptions()
	opts.Opt = bfs.OptCompressedAllgather
	opts.SpareRanks = 1
	clean, root := bfsRunner(t, opts)
	cleanNs := clean.RunRoot(root).TimeNs
	plan := fault.Plan{Crashes: []fault.Crash{
		{Rank: 2, AtNs: 0.5 * cleanNs, Permanent: true},
		{Rank: 6, AtNs: 0.52 * cleanNs, Permanent: true},
	}}
	for _, procs := range []int{1, 2, 8} {
		func() {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			for i := 0; i < 40; i++ {
				// A promotion is for good: every run needs its own
				// runner, over the clean one's graph.
				r, err := bfs.NewRunner(goldenConfig(), machine.PPN8Bind, rmat.Graph500(goldenScale), opts)
				if err != nil {
					t.Fatal(err)
				}
				if err := r.UsePrebuilt(clean.CSRs(), clean.SetupNs); err != nil {
					t.Fatal(err)
				}
				r.Setup()
				if err := r.InjectFaults(plan); err != nil {
					t.Fatal(err)
				}
				res := r.RunRoot(root)
				if len(res.Faults) != 2 || res.Faults[0].Rank != 2 || res.Epoch != 2 {
					t.Fatalf("GOMAXPROCS=%d run %d: recovered %v on epoch %d, want rank 2 then rank 6, two promotions",
						procs, i, res.Faults, res.Epoch)
				}
				sameParents(t, "crash/spare/two", r, clean)
				checkGolden(t, "crash/spare/two", bfsTraversal(r, res).hash(), goldenBFS)
			}
		}()
	}
}

var goldenBFS2D = map[string]uint64{
	"clean/top-down/compress=false":  0x677a335135df5434,
	"clean/top-down/compress=true":   0x1cc45cb882c55c11,
	"clean/hybrid/compress=false":    0x8545780a98aad22d,
	"clean/hybrid/compress=true":     0x48abfe064357f1f2,
	"clean/bottom-up/compress=false": 0xad2e91d029feef4c,
	"clean/bottom-up/compress=true":  0x3a47f3958c9be985,
	"crash/rerun":                    0x243fb5461e2186ee,
	"crash/spare":                    0xdd0771c3affcbf09,
}

// TestGoldenBFS2D: the 2-D engine's three direction policies, raw and
// compressed, plus a rerun-in-place crash and a spare promotion.
func TestGoldenBFS2D(t *testing.T) {
	params := rmat.Graph500(goldenScale)
	// Each grid's first build runs kernel 1; later ones on that grid
	// reuse its graph, as the 1-D two-crash golden does.
	first := map[bfs2d.Grid]*bfs2d.Runner{}
	build := func(grid bfs2d.Grid, spares int, mode bfs2d.Mode, compress bool) (*bfs2d.Runner, int64) {
		r, err := bfs2d.NewRunnerSpares(goldenConfig(), machine.PPN8Bind, grid, params, spares)
		if err != nil {
			t.Fatal(err)
		}
		r.Mode, r.Compress = mode, compress
		if f := first[grid]; f != nil {
			if err := r.UsePrebuilt(f.CSRs(), f.SetupNs); err != nil {
				t.Fatal(err)
			}
		} else {
			first[grid] = r
		}
		r.Setup()
		return r, params.Roots(1, r.HasEdgeGlobal)[0]
	}
	of := func(r *bfs2d.Runner, res bfs2d.RootResult) traversal {
		return traversal{
			timeNs: res.TimeNs, bd: res.Breakdown, comm: res.CommBytes, raw: res.RawCommBytes,
			levels: res.Levels, levelStats: res.LevelStats,
			mttrNs: res.MTTRNs, epoch: res.Epoch, parents: r.ParentArrays(),
		}
	}
	for _, mode := range []bfs2d.Mode{bfs2d.ModeTopDown, bfs2d.ModeHybrid, bfs2d.ModeBottomUp} {
		for _, compress := range []bool{false, true} {
			r, root := build(bfs2d.Grid{R: 2, C: 4}, 0, mode, compress)
			checkGolden(t, fmt.Sprintf("clean/%s/compress=%v", mode, compress), of(r, r.RunRoot(root)).hash(), goldenBFS2D)
		}
	}
	for _, tc := range []struct {
		name      string
		grid      bfs2d.Grid
		spares    int
		permanent bool
	}{
		{"crash/rerun", bfs2d.Grid{R: 2, C: 4}, 0, false},
		{"crash/spare", bfs2d.Grid{R: 2, C: 2}, 4, true},
	} {
		clean, root := build(tc.grid, tc.spares, bfs2d.ModeHybrid, true)
		cleanNs := clean.RunRoot(root).TimeNs
		r, _ := build(tc.grid, tc.spares, bfs2d.ModeHybrid, true)
		plan := fault.Plan{Crashes: []fault.Crash{{Rank: 2, AtNs: 0.5 * cleanNs, Permanent: tc.permanent}}}
		if err := r.InjectFaults(plan); err != nil {
			t.Fatal(err)
		}
		res := r.RunRoot(root)
		if len(res.Faults) != 1 {
			t.Fatalf("%s: %d faults survived, want 1", tc.name, len(res.Faults))
		}
		checkGolden(t, tc.name, of(r, res).hash(), goldenBFS2D)
	}
}

var goldenMSBFS = map[string]uint64{
	"Original/batch=64":             0x5971285db40b3e6b,
	"Original/batch=3":              0x9591ffe560ca49fa,
	"Share in_queue/batch=64":       0x1bc750c4539b2c26,
	"Share in_queue/batch=3":        0x548034664a922421,
	"Share all/batch=64":            0x6148a38b8413ed60,
	"Share all/batch=3":             0xccff31ea77e954d7,
	"Par allgather/batch=64":        0x6e78be58189336b8,
	"Par allgather/batch=3":         0x90d692c5d80b39e2,
	"Compressed allgather/batch=64": 0xac2872c83949a2e2,
	"Compressed allgather/batch=3":  0x185e87b14fce548d,
}

// TestGoldenMSBFS: the batched engine at its five optimization levels,
// a full batch of 64 lanes and a batch of 3.
func TestGoldenMSBFS(t *testing.T) {
	params := rmat.Graph500(goldenScale)
	for opt := bfs.OptOriginal; opt <= bfs.OptCompressedAllgather; opt++ {
		opts := bfs.DefaultOptions()
		opts.Opt = opt
		r, err := msbfs.NewRunner(goldenConfig(), machine.PPN8Bind, params, opts)
		if err != nil {
			t.Fatal(err)
		}
		r.Setup()
		roots := params.Roots(64, r.HasEdgeGlobal)
		for _, batch := range [][]int64{roots, roots[:3]} {
			res := r.RunBatch(batch)
			tr := traversal{
				timeNs: res.TimeNs, bd: res.Breakdown, comm: res.CommBytes, raw: res.RawCommBytes,
				levels: res.Levels, levelStats: res.LevelStats,
				epoch: int(res.AllgatherRounds), // a batch has no epoch; pin its rounds in that slot
			}
			for l := range batch {
				tr.parents = append(tr.parents, r.LaneParents(l))
			}
			checkGolden(t, fmt.Sprintf("%s/batch=%d", opt, len(batch)), tr.hash(), goldenMSBFS)
		}
	}
}
