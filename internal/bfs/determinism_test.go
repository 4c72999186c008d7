package bfs

import (
	"bytes"
	"runtime"
	"testing"

	"numabfs/internal/machine"
	"numabfs/internal/obs"
	"numabfs/internal/rmat"
)

// TestDeterministicAcrossHostParallelism: virtual time must not depend
// on how the host schedules the rank goroutines — the core guarantee of
// the execution-driven simulator. Run the same job under different
// GOMAXPROCS settings and require bit-identical results.
func TestDeterministicAcrossHostParallelism(t *testing.T) {
	const scale = 12
	params := rmat.Graph500(scale)
	run := func() (float64, float64, int64) {
		r, err := NewRunner(testConfig(scale, 2, 4), machine.PPN8Bind, params, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		r.Setup()
		root := params.Roots(1, r.HasEdgeGlobal)[0]
		res := r.RunRoot(root)
		return res.TimeNs, res.Breakdown.Total(), res.TraversedEdges
	}

	prev := runtime.GOMAXPROCS(1)
	t1, b1, e1 := run()
	runtime.GOMAXPROCS(4)
	t4, b4, e4 := run()
	runtime.GOMAXPROCS(prev)

	if t1 != t4 || b1 != b4 || e1 != e4 {
		t.Fatalf("host parallelism leaked into results: GOMAXPROCS=1 -> (%g, %g, %d); GOMAXPROCS=4 -> (%g, %g, %d)",
			t1, b1, e1, t4, b4, e4)
	}
}

// TestDeterministicWithTracing extends the guarantee to observability:
// recording must neither perturb virtual time nor itself depend on host
// scheduling — the exported timeline bytes (which every renderer reads)
// are part of the deterministic output.
func TestDeterministicWithTracing(t *testing.T) {
	const scale = 12
	params := rmat.Graph500(scale)
	run := func() (float64, float64, []byte) {
		r, err := NewRunner(testConfig(scale, 2, 4), machine.PPN8Bind, params, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		rec := obs.NewRecorder()
		sess := rec.NewSession("determinism")
		sess.EnableSampling(obs.DefaultSampleNs)
		r.AttachObs(sess)
		r.Setup()
		root := params.Roots(1, r.HasEdgeGlobal)[0]
		res := r.RunRoot(root)
		var tl bytes.Buffer
		if err := rec.Dump().WriteJSONL(&tl); err != nil {
			t.Fatal(err)
		}
		return res.TimeNs, res.Breakdown.Total(), tl.Bytes()
	}

	prev := runtime.GOMAXPROCS(1)
	t1, b1, d1 := run()
	runtime.GOMAXPROCS(4)
	t4, b4, d4 := run()
	runtime.GOMAXPROCS(prev)

	if t1 != t4 || b1 != b4 {
		t.Fatalf("results differ under tracing: (%g, %g) vs (%g, %g)", t1, b1, t4, b4)
	}
	if string(d1) != string(d4) {
		t.Fatal("timeline bytes depend on host parallelism")
	}

	// And tracing must not change the numbers relative to an untraced run.
	r, err := NewRunner(testConfig(scale, 2, 4), machine.PPN8Bind, params, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	r.Setup()
	root := params.Roots(1, r.HasEdgeGlobal)[0]
	res := r.RunRoot(root)
	if res.TimeNs != t1 || res.Breakdown.Total() != b1 {
		t.Fatalf("tracing changed results: untraced (%g, %g) vs traced (%g, %g)",
			res.TimeNs, res.Breakdown.Total(), t1, b1)
	}
}
