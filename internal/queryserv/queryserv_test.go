package queryserv

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"testing"

	"numabfs/internal/bfs"
	"numabfs/internal/fault"
	"numabfs/internal/graph500"
	"numabfs/internal/machine"
	"numabfs/internal/msbfs"
	"numabfs/internal/rmat"
)

func testRunner(t *testing.T, scale int) (*msbfs.Runner, rmat.Params) {
	t.Helper()
	cfg := machine.Scaled(scale, scale+12)
	cfg.Nodes = 2
	cfg.SocketsPerNode = 4
	cfg.WeakNode = -1
	params := rmat.Graph500(scale)
	opts := bfs.DefaultOptions()
	opts.Opt = bfs.OptCompressedAllgather
	r, err := msbfs.NewRunner(cfg, machine.PPN8Bind, params, opts)
	if err != nil {
		t.Fatal(err)
	}
	r.Setup()
	return r, params
}

func workload(t *testing.T, r *msbfs.Runner, params rmat.Params, n int, qps float64) []Query {
	t.Helper()
	return PoissonWorkload(n, qps, 7, params.NumVertices(), r.HasEdgeGlobal)
}

func TestServeCompletesEveryQuery(t *testing.T) {
	r, params := testRunner(t, 12)
	qs := workload(t, r, params, 48, 2000)
	res, err := Serve(r, Policy{MaxBatch: 16, FillTimeoutNs: 5e5}, qs)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Completed) != len(qs) {
		t.Fatalf("completed %d of %d queries", len(res.Completed), len(qs))
	}
	seen := map[int]bool{}
	for _, c := range res.Completed {
		if c.LatencyNs <= 0 {
			t.Fatalf("query %d: non-positive latency %g", c.ID, c.LatencyNs)
		}
		if c.DoneNs < c.ArriveNs || c.LaunchNs < c.ArriveNs {
			t.Fatalf("query %d: served before it arrived (%+v)", c.ID, c)
		}
		if c.TraversedEdges <= 0 || c.TEPS <= 0 {
			t.Fatalf("query %d: empty traversal (%+v)", c.ID, c)
		}
		seen[c.ID] = true
	}
	if len(seen) != len(qs) {
		t.Fatalf("duplicate or missing query IDs: %d unique", len(seen))
	}
	if res.ThroughputQPS <= 0 || res.MeanBatchFill < 1 {
		t.Fatalf("bad aggregates: %+v", res)
	}
	p50, p99 := res.LatencyPercentile(50), res.LatencyPercentile(99)
	if p50 <= 0 || p99 < p50 {
		t.Fatalf("latency percentiles inverted: p50=%g p99=%g", p50, p99)
	}
}

// TestServeThroughCrash: a permanent rank death inside the first batch
// is survived by the batched engine's rerun from the roots. Every query
// completes with its fault-free answer, and the crashed batch takes
// longer.
func TestServeThroughCrash(t *testing.T) {
	r, params := testRunner(t, 12)
	qs := workload(t, r, params, 48, 2000)
	po := Policy{MaxBatch: 16, FillTimeoutNs: 5e5}
	clean, err := Serve(r, po, qs)
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[int]int64, len(qs))
	for _, c := range clean.Completed {
		want[c.ID] = c.TraversedEdges
	}

	r, _ = testRunner(t, 12)
	at := 0.5 * clean.Batches[0].DurationNs
	if err := r.InjectFaults(fault.Plan{Crashes: []fault.Crash{{Rank: 5, AtNs: at, Permanent: true}}}); err != nil {
		t.Fatal(err)
	}
	res, err := Serve(r, po, qs)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Completed) != len(qs) {
		t.Fatalf("completed %d of %d queries", len(res.Completed), len(qs))
	}
	for _, c := range res.Completed {
		if c.TraversedEdges != want[c.ID] {
			t.Errorf("query %d: %d edges, fault-free %d", c.ID, c.TraversedEdges, want[c.ID])
		}
	}
	if got, base := res.Batches[0].DurationNs, clean.Batches[0].DurationNs; got <= base {
		t.Errorf("crashed batch took %g ns, not above the fault-free %g ns", got, base)
	}
}

// TestAdmissionFillVsTimeout: under a burst that arrives all at once, a
// fill-up policy packs full batches; with more lanes than queries a
// zero-timeout policy still serves immediately; and a batch-1 policy
// serializes — strictly more batches, strictly more allgather rounds.
func TestAdmissionFillVsTimeout(t *testing.T) {
	r, params := testRunner(t, 12)
	roots := params.Roots(32, r.HasEdgeGlobal)
	burst := make([]Query, len(roots))
	for i, root := range roots {
		burst[i] = Query{ID: i, Root: root, ArriveNs: 0}
	}
	packed, err := Serve(r, Policy{MaxBatch: 32}, burst)
	if err != nil {
		t.Fatal(err)
	}
	if len(packed.Batches) != 1 || packed.Batches[0].Size != 32 {
		t.Fatalf("burst not packed into one batch: %+v", packed.Batches)
	}
	serial, err := Serve(r, Policy{MaxBatch: 1}, burst)
	if err != nil {
		t.Fatal(err)
	}
	if len(serial.Batches) != 32 {
		t.Fatalf("batch-1 policy ran %d batches, want 32", len(serial.Batches))
	}
	if packed.AllgatherRounds >= serial.AllgatherRounds {
		t.Errorf("packed rounds %d not < serial rounds %d — amortization missing",
			packed.AllgatherRounds, serial.AllgatherRounds)
	}
	if packed.MakespanNs >= serial.MakespanNs {
		t.Errorf("packed makespan %g not < serial %g", packed.MakespanNs, serial.MakespanNs)
	}
}

// TestFillTimeoutBoundsWait: with sparse arrivals, a finite fill
// timeout launches the head query no later than its deadline plus the
// engine-busy time; timeout 0 launches immediately.
func TestFillTimeoutBoundsWait(t *testing.T) {
	r, params := testRunner(t, 12)
	roots := params.Roots(4, r.HasEdgeGlobal)
	// Arrivals spaced far beyond any batch duration.
	qs := make([]Query, len(roots))
	for i, root := range roots {
		qs[i] = Query{ID: i, Root: root, ArriveNs: float64(i) * 1e9}
	}
	const timeout = 1e6
	res, err := Serve(r, Policy{MaxBatch: 64, FillTimeoutNs: timeout}, qs)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Batches) != len(qs) {
		t.Fatalf("sparse arrivals served in %d batches, want %d", len(res.Batches), len(qs))
	}
	for _, c := range res.Completed {
		if c.LaunchNs > c.ArriveNs+timeout {
			t.Errorf("query %d launched %g ns after arrival, timeout %g", c.ID, c.LaunchNs-c.ArriveNs, timeout)
		}
		if c.LaunchNs < c.ArriveNs+timeout {
			t.Errorf("query %d launched before its fill deadline with no lane-mates", c.ID)
		}
	}
}

// fingerprint serializes the committed result order — the
// determinism contract covers it byte for byte.
func fingerprint(res *Result) string {
	s := ""
	for _, c := range res.Completed {
		s += fmt.Sprintf("%d/%d/%d/%g/%g/%d;", c.ID, c.Batch, c.Lane, c.LaunchNs, c.LatencyNs, c.TraversedEdges)
	}
	return s
}

// TestServeDeterministicAcrossRepeatsAndGOMAXPROCS: the committed
// result order, every latency and every traversal count must be
// bit-identical across repeats and host parallelism.
func TestServeDeterministicAcrossRepeatsAndGOMAXPROCS(t *testing.T) {
	run := func() string {
		r, params := testRunner(t, 12)
		qs := workload(t, r, params, 32, 5000)
		res, err := Serve(r, Policy{MaxBatch: 16, FillTimeoutNs: 2e5}, qs)
		if err != nil {
			t.Fatal(err)
		}
		return fingerprint(res)
	}
	a := run()
	if b := run(); a != b {
		t.Fatal("repeat diverged")
	}
	prev := runtime.GOMAXPROCS(1)
	c := run()
	runtime.GOMAXPROCS(8)
	d := run()
	runtime.GOMAXPROCS(prev)
	if a != c || a != d {
		t.Fatal("host parallelism leaked into the committed result order")
	}
}

func TestPolicyValidate(t *testing.T) {
	for _, po := range []Policy{
		{MaxBatch: 0},
		{MaxBatch: 65},
		{MaxBatch: 8, FillTimeoutNs: -1},
	} {
		if err := po.Validate(); err == nil {
			t.Errorf("policy %+v validated", po)
		}
	}
	if err := (Policy{MaxBatch: 64}).Validate(); err != nil {
		t.Errorf("valid policy rejected: %v", err)
	}
}

func TestServeEdgeCases(t *testing.T) {
	r, params := testRunner(t, 12)
	res, err := Serve(r, Policy{MaxBatch: 8}, nil)
	if err != nil || len(res.Completed) != 0 {
		t.Fatalf("empty workload: %v %+v", err, res)
	}
	root := params.Roots(1, r.HasEdgeGlobal)[0]
	unsorted := []Query{{ID: 0, Root: root, ArriveNs: 10}, {ID: 1, Root: root, ArriveNs: 5}}
	if _, err := Serve(r, Policy{MaxBatch: 8}, unsorted); err == nil {
		t.Fatal("unsorted workload accepted")
	}
	// Every comparison with NaN is false, so no order check catches it.
	for _, at := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -1} {
		bad := []Query{{ID: 0, Root: root, ArriveNs: 10}, {ID: 1, Root: root, ArriveNs: at}}
		if _, err := Serve(r, Policy{MaxBatch: 8}, bad); err == nil {
			t.Errorf("a query arriving at %g accepted", at)
		}
	}
}

// TestPoissonWorkloadRejectsNonFiniteRate: a NaN or infinite rate panics
// up front, as a non-positive one does, instead of drawing a stream of
// NaN (or all-zero) arrivals.
func TestPoissonWorkloadRejectsNonFiniteRate(t *testing.T) {
	for _, qps := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("qps %g accepted", qps)
				}
			}()
			PoissonWorkload(4, qps, 7, 64, func(int64) bool { return true })
		}()
	}
}

func TestPoissonWorkloadDeterministic(t *testing.T) {
	r, params := testRunner(t, 12)
	a := workload(t, r, params, 20, 1000)
	b := workload(t, r, params, 20, 1000)
	if len(a) != 20 || len(b) != 20 {
		t.Fatalf("workload sizes %d, %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("workload draw %d differs: %+v vs %+v", i, a[i], b[i])
		}
		if !r.HasEdgeGlobal(a[i].Root) {
			t.Fatalf("root %d has no edges", a[i].Root)
		}
		if i > 0 && a[i].ArriveNs < a[i-1].ArriveNs {
			t.Fatal("arrivals not sorted")
		}
	}
}

// TestCalibrate: capacity is lanes per full-batch duration, the default
// fill timeout twice that duration, and more lanes than the graph has
// vertices with an edge is the root rule's error.
func TestCalibrate(t *testing.T) {
	r, params := testRunner(t, 10)
	c, err := Calibrate(r, 8)
	if err != nil {
		t.Fatal(err)
	}
	if ns := r.RunBatch(params.Roots(8, r.HasEdgeGlobal)).TimeNs; ns != c.BatchNs {
		t.Errorf("batch %g ns, a rerun of the same roots takes %g", c.BatchNs, ns)
	}
	if want := 8 / (c.BatchNs / 1e9); c.CapacityQPS != want {
		t.Errorf("capacity %g q/s, want %g", c.CapacityQPS, want)
	}
	if got := c.FillTimeoutNs(0); got != 2*c.BatchNs {
		t.Errorf("default fill timeout %g, want %g", got, 2*c.BatchNs)
	}
	if got := c.FillTimeoutNs(5e5); got != 5e5 {
		t.Errorf("explicit fill timeout became %g", got)
	}
	if _, err := Calibrate(r, int(params.NumVertices())+1); !errors.Is(err, graph500.ErrTooManyRoots) {
		t.Errorf("oversized calibration batch: %v, want ErrTooManyRoots", err)
	}
}
