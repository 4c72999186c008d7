package graph500

import (
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"numabfs/internal/bfs"
	"numabfs/internal/bfs2d"
	"numabfs/internal/machine"
	"numabfs/internal/obs"
	"numabfs/internal/rmat"
)

// diff1Dvs2D runs the same root through both engines at the top of
// their ladders — the 1-D hybrid with the compressed allgather as
// baseline A, the 2-D hybrid with compressed folds as candidate B —
// on the same graph and machine, and returns the obsdiff between them.
// This is the profile the crossover experiment reads to explain which
// phases the 2-D decomposition moves.
func diff1Dvs2D(t *testing.T) *obs.RunDiff {
	t.Helper()
	const scale = 12
	cfg := machine.Scaled(scale, scale+12)
	cfg.Nodes = 2
	cfg.SocketsPerNode = 4
	cfg.WeakNode = -1
	params := rmat.Graph500(scale)

	recA := obs.NewRecorder()
	opts := bfs.DefaultOptions()
	opts.Opt = bfs.OptCompressedAllgather
	r1, err := bfs.NewRunner(cfg, machine.PPN8Bind, params, opts)
	if err != nil {
		t.Fatal(err)
	}
	r1.AttachObs(recA.NewSession("1-D hybrid"))
	r1.Setup()
	root := params.Roots(1, r1.HasEdgeGlobal)[0]
	r1.RunRoot(root)

	recB := obs.NewRecorder()
	r2, err := bfs2d.NewRunner(cfg, machine.PPN8Bind, bfs2d.Grid{R: 2, C: 4}, params, 0)
	if err != nil {
		t.Fatal(err)
	}
	r2.Mode = bfs2d.ModeHybrid
	r2.Compress = true
	r2.AttachObs(recB.NewSession("2-D hybrid"))
	r2.Setup()
	r2.RunRoot(root)

	return obs.DiffRuns(recA.Dump(), recB.Dump())
}

const diffGolden = "diff_1d2d_golden.txt"

// TestObsdiff1Dvs2DGolden pins the rendered 1-D-vs-2-D run diff byte
// for byte. The fixture documents what the profiler shows at the
// crossover: which phases the 2-D engine trades (smaller allgathers,
// extra fold exchange), attributed per phase and per rank. Regenerate
// with:
//
//	OBS_UPDATE_GOLDEN=1 go test ./internal/graph500 -run TestObsdiff1Dvs2DGolden
func TestObsdiff1Dvs2DGolden(t *testing.T) {
	got := diff1Dvs2D(t).String()
	path := filepath.Join("testdata", diffGolden)
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
		t.Errorf("1-D vs 2-D diff drifted from golden %s:\n--- got ---\n%s--- want ---\n%s", path, got, want)
	}
}

// TestObsdiff1Dvs2DDeterministic: the diff must be invariant under host
// parallelism — the same property the engines themselves guarantee.
func TestObsdiff1Dvs2DDeterministic(t *testing.T) {
	a := diff1Dvs2D(t).String()
	old := runtime.GOMAXPROCS(1)
	b := diff1Dvs2D(t).String()
	runtime.GOMAXPROCS(old)
	if a != b {
		t.Fatal("1-D vs 2-D diff differs under GOMAXPROCS=1")
	}
}
