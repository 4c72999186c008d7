package graph500

import (
	"strings"
	"testing"

	"numabfs/internal/bfs"
	"numabfs/internal/graph"
	"numabfs/internal/machine"
	"numabfs/internal/msbfs"
	"numabfs/internal/rmat"
)

func newBatchRunner(t *testing.T, scale int, opt bfs.Opt) (*msbfs.Runner, rmat.Params) {
	t.Helper()
	cfg := machine.Scaled(scale, scale+12)
	cfg.Nodes = 2
	cfg.SocketsPerNode = 4
	cfg.WeakNode = -1
	params := rmat.Graph500(scale)
	opts := bfs.DefaultOptions()
	opts.Opt = opt
	r, err := msbfs.NewRunner(cfg, machine.PPN8Bind, params, opts)
	if err != nil {
		t.Fatal(err)
	}
	r.Setup()
	return r, params
}

// TestValidateBatchAtEveryOptLevel: every lane's parent tree passes the
// Graph500 rules at every optimization level the batched engine
// supports. (Bit-identity with the batch-of-one run is msbfs's
// TestBatchBitIdenticalToBatchOne and ExtMSBFS's per-cell check.)
func TestValidateBatchAtEveryOptLevel(t *testing.T) {
	const scale = 12
	for _, opt := range []bfs.Opt{bfs.OptOriginal, bfs.OptShareInQueue, bfs.OptShareAll,
		bfs.OptParAllgather, bfs.OptCompressedAllgather} {
		t.Run(opt.String(), func(t *testing.T) {
			r, params := newBatchRunner(t, scale, opt)
			roots := params.Roots(8, r.HasEdgeGlobal)
			r.RunBatch(roots)
			if err := ValidateBatch(r, roots); err != nil {
				t.Fatalf("batched validation failed: %v", err)
			}
		})
	}
}

// TestLaneLevelsMatchReference: the per-lane level helper agrees with
// the sequential reference BFS.
func TestLaneLevelsMatchReference(t *testing.T) {
	const scale = 12
	r, params := newBatchRunner(t, scale, bfs.OptCompressedAllgather)
	ref := graph.BuildGlobal(params, true)
	roots := params.Roots(4, r.HasEdgeGlobal)
	r.RunBatch(roots)
	for l, root := range roots {
		want, _ := graph.ReferenceBFS(ref, root)
		got := LaneLevels(r, l, root)
		for v := range got {
			if got[v] != want[v] {
				t.Fatalf("lane %d vertex %d: level %d, want %d", l, v, got[v], want[v])
			}
		}
	}
}

// TestValidateBatchCatchesCorruption: a lane pointing at a non-edge
// must fail with the lane identified.
func TestValidateBatchCatchesCorruption(t *testing.T) {
	const scale = 12
	r, params := newBatchRunner(t, scale, bfs.OptOriginal)
	roots := params.Roots(2, r.HasEdgeGlobal)
	r.RunBatch(roots)
	// Corrupt lane 1: claim the wrong root so rule 1 fails.
	bad := []int64{roots[0], (roots[1] + 1) % params.NumVertices()}
	err := ValidateBatch(r, bad)
	if err == nil {
		t.Fatal("corrupted batch validated")
	}
	if !strings.Contains(err.Error(), "lane 1") {
		t.Fatalf("error does not identify the lane: %v", err)
	}
}
