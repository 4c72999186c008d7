package msbfs

import (
	"testing"

	"numabfs/internal/bfs"
	"numabfs/internal/machine"
	"numabfs/internal/rmat"
)

// batchAllocs measures the steady-state allocations of one 64-lane
// RunBatch on the 8-rank test world at the compressed allgather level
// (the query server's), two warm-up batches excluded. AllocsPerRun pins
// GOMAXPROCS to 1, so the count is stable run to run.
func batchAllocs(t *testing.T) float64 {
	t.Helper()
	const scale = 12
	opts := bfs.DefaultOptions()
	opts.Opt = bfs.OptCompressedAllgather
	r := newTestRunner(t, scale, opts)
	roots := rmat.Graph500(scale).Roots(64, r.HasEdgeGlobal)
	r.RunBatch(roots)
	r.RunBatch(roots)
	return testing.AllocsPerRun(5, func() { r.RunBatch(roots) })
}

// TestBatchAllocsBounded: a warm batch allocates per level and per
// collective call, never per vertex, lane or hit — 12 objects measured,
// with or without -race (348 while the collectives ran as messages, 604
// while every omp region and node layout was allocated afresh) — and the
// count must not grow batch over batch.
func TestBatchAllocsBounded(t *testing.T) {
	first := batchAllocs(t)
	again := batchAllocs(t)
	if again > first {
		t.Errorf("per-batch allocations grew across batches: %g then %g", first, again)
	}
	const bound = 12
	if first > bound {
		t.Errorf("64-lane batch allocates %g objects, want <= %d", first, bound)
	}
}

// BenchmarkRunBatch times one 64-lane batch of the query server's shape:
// scale 16 on 2 nodes at the compressed allgather level, g = 256.
func BenchmarkRunBatch(b *testing.B) {
	const scale = 16
	params := rmat.Graph500(scale)
	cfg := machine.Scaled(scale, scale+12)
	cfg.Nodes = 2
	cfg.WeakNode = -1
	opts := bfs.DefaultOptions()
	opts.Opt = bfs.OptCompressedAllgather
	opts.Granularity = 256
	r, err := NewRunner(cfg, machine.PPN8Bind, params, opts)
	if err != nil {
		b.Fatal(err)
	}
	r.Setup()
	roots := params.Roots(64, r.HasEdgeGlobal)
	r.RunBatch(roots)
	b.ReportAllocs()
	b.ResetTimer()
	for it := 0; it < b.N; it++ {
		r.RunBatch(roots)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/batch")
}
