package main

// adapter.go is the only file of the benchmark that imports the
// simulator. Everything else sees engines, ops and plain numbers, so a
// refactor of the engine chassis or the collective surface is a
// one-file follow-up here. The benchmark measures the layers from
// outside: it times calls into their public functions and reads their
// public result structs.

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"numabfs"
	"numabfs/internal/bfs2d"
	"numabfs/internal/bitmap"
	"numabfs/internal/collective"
	"numabfs/internal/engine"
	"numabfs/internal/experiments"
	"numabfs/internal/graph"
	"numabfs/internal/graph500"
	"numabfs/internal/machine"
	"numabfs/internal/mpi"
	"numabfs/internal/msbfs"
	"numabfs/internal/obs"
	"numabfs/internal/omp"
	"numabfs/internal/queryserv"
	"numabfs/internal/simnet"
	"numabfs/internal/trace"
	"numabfs/internal/wire"
)

// query is one root request of the serve workload.
type query struct {
	Root     int64
	ArriveNs float64
}

// op is one operation of a workload: one BFS root, or one query stream.
type op struct {
	Root    int64
	Queries []query

	served []queryserv.Query // Queries in the server's type, built on first use
}

// opOut is what one op reports on the virtual clock. The slices are
// reused across ops so that the harness adds no allocations of its own
// to host_allocs_per_op.
type opOut struct {
	Edges    int64     // simulated edges traversed
	VirtNs   []float64 // RootResult.TimeNs, or one LatencyNs per query on serve
	VirtTEPS []float64 // RootResult.TEPS, or the stream's edges over its makespan on serve
	Sig      uint64    // hash of every virtual field that must repeat bit-for-bit
}

// ledgerPhases are the Breakdown phases the ledger reports, in the
// order of ledger.PhaseNs.
var ledgerPhases = [...]trace.Phase{
	trace.TDComp, trace.TDComm, trace.BUComp, trace.BUComm, trace.Switch, trace.Stall, trace.Overlap,
}

func phaseName(i int) string { return ledgerPhases[i].String() }

// ledger holds the exact per-op counts the layers report: network
// volumes, codec totals and the virtual-time breakdown. On serve one op
// is a stream and the numbers are summed over its batches.
type ledger struct {
	Msgs, InterBytes, IntraBytes, RawInterBytes int64
	WireRaw, WireBytes                          int64
	PhaseNs                                     [len(ledgerPhases)]float64
	OverlapExposedNs                            float64
	LevelsTD, LevelsBU                          int

	// Serve only.
	Batches     int
	Queries     int
	Rounds      int64
	ServedQPS   float64
	AdmitWaitNs []float64
}

func (l *ledger) addRoot(bd trace.Breakdown, vol simnet.Volume, ws wire.Stats) {
	l.Msgs += vol.IntraMsgs + vol.InterMsgs
	l.InterBytes += vol.InterBytes
	l.IntraBytes += vol.IntraBytes
	l.RawInterBytes += vol.RawInterBytes
	l.WireRaw += ws.RawBytes
	l.WireBytes += ws.WireBytes
	for i, ph := range ledgerPhases {
		l.PhaseNs[i] += bd.Ns[ph]
	}
	l.OverlapExposedNs += bd.OverlapExposedNs
	l.LevelsTD += bd.TDLevels
	l.LevelsBU += bd.BULevels
}

// merge adds another op's ledger.
func (l *ledger) merge(o ledger) {
	l.Msgs += o.Msgs
	l.InterBytes += o.InterBytes
	l.IntraBytes += o.IntraBytes
	l.RawInterBytes += o.RawInterBytes
	l.WireRaw += o.WireRaw
	l.WireBytes += o.WireBytes
	for i := range l.PhaseNs {
		l.PhaseNs[i] += o.PhaseNs[i]
	}
	l.OverlapExposedNs += o.OverlapExposedNs
	l.LevelsTD += o.LevelsTD
	l.LevelsBU += o.LevelsBU
	l.Batches += o.Batches
	l.Queries += o.Queries
	l.Rounds += o.Rounds
	l.ServedQPS += o.ServedQPS
	l.AdmitWaitNs = append(l.AdmitWaitNs, o.AdmitWaitNs...)
}

// engineSpec names an engine configuration without the simulator's types.
type engineSpec struct {
	Engine      string // "bfs", "bfs2d" or "msbfs"
	Scale       int
	Nodes       int
	Opt         string // "original", "par", "compressed" or "overlap" (bfs, msbfs)
	Granularity int64
}

// runner is one set-up engine, ready to run ops.
type runner interface {
	HasEdge(v int64) bool
	// Run is the timed call: one RunRoot, or one queryserv.Serve.
	Run(o *op, out *opOut)
	// Validate checks what the last Run(o) left against the Graph500
	// specification (on serve: lanes of the stream's final batch).
	Validate(o *op) error
	// HashParents folds the parent arrays the last Run left into h.
	HashParents(h *hasher)
	// Depths returns one tree of the last Run(o) as a level array.
	Depths(o *op) (root int64, level []int64)
	// Ledger returns the exact counts of the last Run(o). On serve it
	// replays the stream's batches through RunBatch to read them.
	Ledger(o *op) ledger
	// AttachObs turns on the simulator's own recorder; it cannot be
	// turned off again, so it goes last.
	AttachObs() *obsTap
	// CorruptRoot overwrites the root's parent entry left by the last
	// Run(o); false when the engine hands out copies only.
	CorruptRoot(o *op) bool
}

func machineFor(s engineSpec) numabfs.ClusterConfig {
	cfg := numabfs.ScaledCluster(s.Scale, s.Scale+12).WithNodes(s.Nodes)
	cfg.WeakNode = -1
	return cfg
}

func graphFor(s engineSpec, rmatSeed uint64) numabfs.GraphParams {
	return numabfs.Graph500Params(s.Scale).WithSeed(rmatSeed)
}

// drawRoots draws n distinct rooted vertices from the graph's seed, as
// the Graph500 root rule does.
func drawRoots(s engineSpec, rmatSeed uint64, n int, hasEdge func(int64) bool) []int64 {
	return graphFor(s, rmatSeed).Roots(n, hasEdge)
}

func optionsFor(s engineSpec) (numabfs.Options, error) {
	opts := numabfs.DefaultOptions()
	opts.Granularity = s.Granularity
	switch s.Opt {
	case "original":
		opts.Opt = numabfs.OptOriginal
	case "par":
		opts.Opt = numabfs.OptParAllgather
	case "compressed":
		opts.Opt = numabfs.OptCompressedAllgather
	case "overlap":
		opts.Opt = numabfs.OptOverlapAllgather
	default:
		return opts, fmt.Errorf("bench: unknown optimization level %q", s.Opt)
	}
	return opts, nil
}

// newEngine builds a runner and runs kernel 1. This is what setup_s times.
func newEngine(s engineSpec, rmatSeed uint64, sp *spanRec) (runner, error) {
	cfg := machineFor(s)
	params := graphFor(s, rmatSeed)
	switch s.Engine {
	case "bfs":
		opts, err := optionsFor(s)
		if err != nil {
			return nil, err
		}
		id := sp.begin("new_runner", -1)
		r, err := numabfs.NewRunner(cfg, numabfs.PPN8Bind, params, opts)
		sp.end(id)
		if err != nil {
			return nil, err
		}
		id = sp.begin("kernel1", -1)
		r.Setup()
		sp.end(id)
		return &bfs1d{r: r}, nil
	case "bfs2d":
		id := sp.begin("new_runner", -1)
		r, err := numabfs.NewRunner2D(cfg, numabfs.PPN8Bind, numabfs.DefaultGrid(s.Nodes*cfg.SocketsPerNode), params)
		sp.end(id)
		if err != nil {
			return nil, err
		}
		r.Mode = bfs2d.ModeHybrid
		r.Compress = true
		id = sp.begin("kernel1", -1)
		r.Setup()
		sp.end(id)
		return &grid2d{r: r}, nil
	case "msbfs":
		opts, err := optionsFor(s)
		if err != nil {
			return nil, err
		}
		id := sp.begin("kernel1", -1) // NewBatchRunner builds and sets up in one call
		r, err := graph500.NewBatchRunner(graph500.Config{
			Machine: cfg, Policy: numabfs.PPN8Bind, Params: params, Opts: opts,
		})
		sp.end(id)
		if err != nil {
			return nil, err
		}
		return &served{r: r, policy: queryserv.Policy{MaxBatch: 64, FillTimeoutNs: 3e6}}, nil
	}
	return nil, fmt.Errorf("bench: unknown engine %q", s.Engine)
}

// setRoot fills out for a single-root op.
func (out *opOut) setRoot(root, edges, visited, commBytes int64, levels int, timeNs, teps float64) {
	out.Edges = edges
	out.VirtNs = append(out.VirtNs[:0], timeNs)
	out.VirtTEPS = append(out.VirtTEPS[:0], teps)
	h := newHasher()
	h.i64(root)
	h.f64(timeNs)
	h.f64(teps)
	h.i64(int64(levels))
	h.i64(commBytes)
	h.i64(edges)
	h.i64(visited)
	out.Sig = uint64(h)
}

// bfs1d is the 1-D hybrid engine (scan2, comm16-raw, comm16-top).
type bfs1d struct {
	r   *numabfs.Runner
	led ledger
}

func (e *bfs1d) HasEdge(v int64) bool { return e.r.HasEdgeGlobal(v) }

func (e *bfs1d) Run(o *op, out *opOut) {
	res := e.r.RunRoot(o.Root)
	out.setRoot(res.Root, res.TraversedEdges, res.Visited, res.CommBytes, res.Levels, res.TimeNs, res.TEPS)
	e.led = ledger{}
	e.led.addRoot(res.Breakdown, e.r.W.Net().Volume(), res.Wire)
}

func (e *bfs1d) Validate(o *op) error { return numabfs.Validate(e.r, o.Root) }
func (e *bfs1d) Ledger(*op) ledger    { return e.led }

func (e *bfs1d) HashParents(h *hasher) {
	for _, pa := range e.r.ParentArrays() {
		h.i64s(pa)
	}
}

func (e *bfs1d) Depths(o *op) (int64, []int64) { return o.Root, graph500.Levels(e.r, o.Root) }

func (e *bfs1d) AttachObs() *obsTap {
	t := newObsTap("bench bfs")
	e.r.AttachObs(t.sess)
	return t
}

func (e *bfs1d) CorruptRoot(o *op) bool {
	pos := e.r.Part.Owner(o.Root)
	lo, _ := e.r.Part.Range(pos)
	e.r.ParentArrays()[pos][o.Root-lo] = -1
	return true
}

// grid2d is the 2-D engine in hybrid mode with compression.
type grid2d struct {
	r   *numabfs.Runner2D
	led ledger
}

func (e *grid2d) HasEdge(v int64) bool { return e.r.HasEdgeGlobal(v) }

func (e *grid2d) Run(o *op, out *opOut) {
	res := e.r.RunRoot(o.Root)
	out.setRoot(res.Root, res.TraversedEdges, res.Visited, res.CommBytes, res.Levels, res.TimeNs, res.TEPS)
	e.led = ledger{}
	e.led.addRoot(res.Breakdown, e.r.W.Net().Volume(), res.Wire)
}

func (e *grid2d) Validate(o *op) error { return numabfs.Validate2D(e.r, o.Root) }
func (e *grid2d) Ledger(*op) ledger    { return e.led }

func (e *grid2d) HashParents(h *hasher) {
	for _, pa := range e.r.ParentArrays() {
		h.i64s(pa)
	}
}

func (e *grid2d) Depths(o *op) (int64, []int64) { return o.Root, e.r.Levels(o.Root) }

func (e *grid2d) AttachObs() *obsTap {
	t := newObsTap("bench bfs2d")
	e.r.AttachObs(t.sess)
	return t
}

func (e *grid2d) CorruptRoot(o *op) bool {
	bs := e.r.BlockSize()
	e.r.ParentArrays()[o.Root/bs][o.Root%bs] = -1
	return true
}

// served is the batched engine behind the query server.
type served struct {
	r      *msbfs.Runner
	policy queryserv.Policy
	last   *queryserv.Result
}

func (e *served) HasEdge(v int64) bool { return e.r.HasEdgeGlobal(v) }

func (e *served) Run(o *op, out *opOut) {
	if o.served == nil {
		o.served = make([]queryserv.Query, len(o.Queries))
		for i, q := range o.Queries {
			o.served[i] = queryserv.Query{ID: i, Root: q.Root, ArriveNs: q.ArriveNs}
		}
	}
	res, err := queryserv.Serve(e.r, e.policy, o.served)
	if err != nil {
		// Serve refuses only a bad policy or unsorted arrivals; both
		// are fixed by this harness, so this is a bug, not an input.
		panic(err)
	}
	e.last = res
	out.Edges = 0
	out.VirtNs = out.VirtNs[:0]
	h := newHasher()
	for _, c := range res.Completed {
		out.Edges += c.TraversedEdges
		out.VirtNs = append(out.VirtNs, c.LatencyNs)
		h.i64(int64(c.ID))
		h.i64(int64(c.Batch))
		h.i64(int64(c.Lane))
		h.f64(c.LaunchNs)
		h.f64(c.DoneNs)
		h.f64(c.LatencyNs)
		h.i64(c.TraversedEdges)
		h.f64(c.TEPS)
	}
	// The op's rate is the stream's: per-query TEPS are dominated by the
	// few queries whose root sits in a two-vertex component, and their
	// count varies from seed to seed.
	out.VirtTEPS = append(out.VirtTEPS[:0], float64(out.Edges)/(res.MakespanNs/1e9))
	for _, b := range res.Batches {
		h.i64(int64(b.Size))
		h.f64(b.DurationNs)
		h.i64(b.AllgatherRounds)
	}
	out.Sig = uint64(h)
}

// batchRoots returns the roots of batch b of the last Serve, in lane order.
func (e *served) batchRoots(b int) []int64 {
	var roots []int64
	for _, c := range e.last.Completed {
		if c.Batch == b {
			roots = append(roots, c.Root)
		}
	}
	return roots
}

// checkedLanes returns the roots of the lanes of the last Serve's final
// batch that the checks look at. Only the final batch's trees outlive a
// Serve call, and validating one lane costs as much as serving a whole
// batch, so the checks take the first servedLanesChecked lanes of each
// stream: 24 streams x 16 lanes per run.
func (e *served) checkedLanes() []int64 {
	roots := e.batchRoots(len(e.last.Batches) - 1)
	return roots[:min(len(roots), servedLanesChecked)]
}

const servedLanesChecked = 16

func (e *served) Validate(*op) error { return graph500.ValidateBatch(e.r, e.checkedLanes()) }

func (e *served) HashParents(h *hasher) {
	for l := range e.checkedLanes() {
		h.i64s(e.r.LaneParents(l))
	}
}

func (e *served) Depths(*op) (int64, []int64) {
	root := e.checkedLanes()[0]
	return root, graph500.LaneLevels(e.r, 0, root)
}

func (e *served) Ledger(*op) ledger {
	res := e.last
	led := ledger{
		Batches: len(res.Batches), Queries: len(res.Completed),
		Rounds: res.AllgatherRounds, ServedQPS: res.ThroughputQPS,
	}
	for _, c := range res.Completed {
		led.AdmitWaitNs = append(led.AdmitWaitNs, c.LaunchNs-c.ArriveNs)
	}
	// Replaying in launch order leaves the runner holding the final
	// batch again, so Validate and HashParents still see what Serve left.
	for b := range res.Batches {
		br := e.r.RunBatch(e.batchRoots(b))
		led.addRoot(br.Breakdown, e.r.W.Net().Volume(), br.Wire)
	}
	return led
}

func (e *served) AttachObs() *obsTap {
	t := newObsTap("bench msbfs")
	e.r.AttachObs(t.sess)
	return t
}

func (e *served) CorruptRoot(*op) bool { return false } // LaneParents hands out copies

// obsTap is an attached simulator recorder.
type obsTap struct {
	rec  *obs.Recorder
	sess *obs.Session
}

func newObsTap(label string) *obsTap {
	rec := obs.NewRecorder()
	return &obsTap{rec: rec, sess: rec.NewSession(label)}
}

func (t *obsTap) spans() int {
	n := 0
	for _, rk := range t.sess.Ranks() {
		n += len(rk.Spans())
	}
	return n
}

// exportMs times a Chrome-trace export of everything recorded so far.
func (t *obsTap) exportMs() (float64, error) {
	t0 := time.Now()
	err := t.rec.WriteChromeTrace(io.Discard)
	return msSince(t0), err
}

// refGraph is the whole graph as one CSR, for the independent serial
// reference BFS the depth check compares against.
type refGraph struct{ csr *graph.CSR }

func buildRef(s engineSpec, rmatSeed uint64) *refGraph {
	return &refGraph{csr: graph.BuildGlobal(graphFor(s, rmatSeed), true)}
}

func (g *refGraph) mib() float64 { return float64(g.csr.BytesApprox()) / (1 << 20) }

// bfs runs the serial reference from root and also returns the number
// of undirected edges in the component it reached.
func (g *refGraph) bfs(root int64) (level []int64, edges int64) {
	level, _ = graph.ReferenceBFS(g.csr, root)
	for v, l := range level {
		if l >= 0 {
			edges += g.csr.Degree(int64(v))
		}
	}
	return level, edges / 2
}

func msSince(t0 time.Time) float64 { return float64(time.Since(t0)) / 1e6 }

// mallocs reads the cumulative allocation count.
func mallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

// The substrate probes time single layers in steady state: persistent
// worlds, preallocated buffers, the comm16 workloads' shape (128 ranks,
// a scale-18 in_queue of 4096 words, so 32-word segments). Host numbers
// are per call; every collective also reports its exact virtual time.

const (
	probeWords    = 4096 // in_queue words of a scale-18 graph
	probeListVals = 16   // values per destination in the alltoallv probe
)

func probeWorld(nodes int) (*mpi.World, machine.Config, machine.Placement) {
	cfg := numabfs.TableI()
	cfg.Nodes = nodes
	cfg.WeakNode = -1
	pl := machine.PlacementFor(cfg, numabfs.PPN8Bind)
	return mpi.NewWorld(cfg, pl), cfg, pl
}

// substrateProbes measures the workload-independent per-layer metrics
// and hands each to emit under its registry name.
func substrateProbes(emit func(name string, v float64)) {
	probeMPI(emit)
	probeCollectives(emit)
	probeBitmap(emit)
	probeWire(emit)

	p := numabfs.Graph500Params(20)
	const edges = 1 << 20
	var sink int64
	t0 := time.Now()
	for i := int64(0); i < edges; i++ {
		u, v := p.EdgeAt(i)
		sink += u + v
	}
	emit("rmat.edge_ns", float64(time.Since(t0))/edges)
	keep(sink)

	const selects = 50
	t0 = time.Now()
	for i := 0; i < selects; i++ {
		keep(int64(selectEngine().Cost1DNs))
	}
	emit("engine.select_us", float64(time.Since(t0))/1e3/selects)
}

var sinkI64 int64

// keep defeats dead-code elimination of a probe's result.
func keep(x int64) { sinkI64 += x }

func probeMPI(emit func(string, float64)) {
	// Two ranks on different nodes exchange fixed 64-byte messages.
	w, _, _ := probeWorld(2)
	a, b := 0, w.ProcsPerNode()
	pair := func(n int, body func(p *mpi.Proc, peer, i int)) (ns, allocs float64) {
		run := func(n int) {
			w.Run(func(p *mpi.Proc) {
				peer := -1
				switch p.Rank() {
				case a:
					peer = b
				case b:
					peer = a
				default:
					return
				}
				for i := 0; i < n; i++ {
					body(p, peer, i)
				}
			})
		}
		run(n / 10)
		m0, t0 := mallocs(), time.Now()
		run(n)
		return float64(time.Since(t0)) / float64(n), float64(mallocs()-m0) / float64(n)
	}
	ns, allocs := pair(40000, func(p *mpi.Proc, peer, i int) {
		p.SendRecv(peer, i, 64, nil, peer, i, 1)
	})
	emit("mpi.sendrecv_ns", ns)
	emit("mpi.sendrecv_allocs", allocs)
	ns, _ = pair(40000, func(p *mpi.Proc, peer, i int) {
		rr := p.Irecv(peer, i, nil)
		sr := p.Isend(peer, i, 64, nil, 1)
		rr.Wait()
		sr.Wait()
	})
	emit("mpi.isend_wait_ns", ns)

	builds := make([]float64, 5)
	var w128 *mpi.World
	for i := range builds {
		t0 := time.Now()
		w128, _, _ = probeWorld(16)
		builds[i] = msSince(t0)
	}
	emit("mpi.world_build_ms.np128", median(builds))

	const barriers = 200
	w128.Run(func(p *mpi.Proc) { p.Barrier() })
	t0 := time.Now()
	w128.Run(func(p *mpi.Proc) {
		for i := 0; i < barriers; i++ {
			p.Barrier()
		}
	})
	emit("mpi.barrier_us.np128", float64(time.Since(t0))/1e3/barriers)
}

func probeCollectives(emit func(string, float64)) {
	w, cfg, pl := probeWorld(16)
	np := w.NumProcs()
	g := collective.WorldGroup(w)
	nc := collective.NewNodeComm(w)
	l := collective.EvenLayout(probeWords, np)

	// measure runs body once for the exact virtual time, then iters
	// times inside one world run for the host time per call (which
	// includes one world barrier, about 1 % of the cheapest collective).
	measure := func(name string, iters int, body func(p *mpi.Proc)) (allocsPerCall float64) {
		w.Run(body) // first call sizes every lazily grown buffer
		w.ResetClocks()
		w.Run(body)
		emit("collective."+name+"_virt_us.np128", w.MaxClock()/1e3)
		m0, t0 := mallocs(), time.Now()
		w.Run(func(p *mpi.Proc) {
			for i := 0; i < iters; i++ {
				body(p)
				// As the engines' level-end allreduce does, keep a fast
				// rank from starting the next call (and reusing its codec
				// scratch) while a slow one still reads this call's payloads.
				p.Barrier()
			}
		})
		emit("collective."+name+"_us.np128", float64(time.Since(t0))/1e3/float64(iters))
		return float64(mallocs()-m0) / float64(iters)
	}

	// Sparse contributions (one bit in 97), so the compressed variant
	// has something to compress.
	fillOwn := func(buf []uint64, pos int) {
		lo, n := l.Displs[pos], l.Counts[pos]
		for i := lo * 64; i < (lo+n)*64; i += 97 {
			buf[i/64] |= 1 << uint(i%64)
		}
	}

	private := make([][]uint64, np)
	for r := range private {
		private[r] = make([]uint64, probeWords)
		fillOwn(private[r], r)
	}
	allocs := measure("allgather_ring", 10, func(p *mpi.Proc) {
		g.AllgatherRing(p, private[p.Rank()], l)
	})
	emit("collective.allgather_ring_allocs_per_step", allocs/float64(np*(np-1)))

	w.Run(func(p *mpi.Proc) { fillOwn(p.SharedWords("probe_inq", probeWords), p.Rank()) })
	measure("par_inplace", 40, func(p *mpi.Proc) {
		nc.ParallelAllgatherInPlace(p, p.SharedWords("probe_inq", probeWords), l)
	})
	codecs := make([]*wire.Codec, np)
	for r := range codecs {
		codecs[r] = &wire.Codec{Team: omp.TeamFor(cfg, pl), Loc: machine.NodeShared}
	}
	measure("par_inplace_compressed", 40, func(p *mpi.Proc) {
		nc.ParallelAllgatherInPlaceCompressed(p, p.SharedWords("probe_inq", probeWords), l, codecs[p.Rank()])
	})

	send := make([][][]int64, np)
	for r := range send {
		send[r] = make([][]int64, np)
		for d := range send[r] {
			vals := make([]int64, probeListVals)
			for i := range vals {
				vals[i] = int64(d*probeListVals*64 + i*61 + r)
			}
			send[r][d] = vals
		}
	}
	measure("alltoallv_i64", 10, func(p *mpi.Proc) {
		g.AlltoallvInt64(p, send[p.Rank()])
	})
}

func probeBitmap(emit func(string, float64)) {
	const n = 1 << 20
	bm := bitmap.New(n)
	for i := int64(0); i < n; i += 97 {
		bm.Set(i)
	}
	sum := bitmap.NewSummary(n, 256)
	sum.Rebuild(bm)

	const checks = 1 << 23
	hits := int64(0)
	t0 := time.Now()
	for i := int64(0); i < checks; i++ {
		u := (i * 31) & (n - 1)
		if !sum.CoveredZero(u) && bm.Get(u) {
			hits++
		}
	}
	emit("bitmap.check_ns", float64(time.Since(t0))/checks)
	keep(hits)

	const scans = 2000
	queue := make([]int64, 0, n/97+1)
	t0 = time.Now()
	for i := 0; i < scans; i++ {
		queue = bm.AppendSetBits(queue[:0], 0, n)
	}
	emit("bitmap.append_setbits_gbps", float64(scans)*n/8/float64(time.Since(t0)))
	keep(int64(len(queue)))

	fine := bitmap.NewSummary(n, 64)
	t0 = time.Now()
	for i := 0; i < scans; i++ {
		keep(fine.Rebuild(bm))
	}
	emit("bitmap.summary_rebuild_gbps", float64(scans)*n/8/float64(time.Since(t0)))
}

func probeWire(emit func(string, float64)) {
	cfg := numabfs.TableI()
	team := omp.TeamFor(cfg, machine.PlacementFor(cfg, numabfs.PPN8Bind))
	const words, iters = 1024, 4000
	// One segment per format, shaped so that the format is the one the
	// adaptive selector would choose: half-full words, one bit in 200,
	// and short literal runs between long zero runs.
	segs := map[wire.Format][]uint64{
		wire.FormatDense:  make([]uint64, words),
		wire.FormatSparse: make([]uint64, words),
		wire.FormatRLE:    make([]uint64, words),
	}
	for i := range segs[wire.FormatDense] {
		segs[wire.FormatDense][i] = 0x5555555555555555 << uint(i%2)
	}
	for i := 0; i < words*64; i += 200 {
		segs[wire.FormatSparse][i/64] |= 1 << uint(i%64)
	}
	for i := 0; i < words; i += 32 {
		segs[wire.FormatRLE][i] = ^uint64(0)
		segs[wire.FormatRLE][i+1] = ^uint64(0)
	}
	dst := make([]uint64, words)
	formats := []wire.Format{wire.FormatDense, wire.FormatSparse, wire.FormatRLE}
	for _, f := range formats {
		c := &wire.Codec{Team: team, Loc: machine.Local, Force: f}
		seg := segs[f]
		pl, _ := c.Encode(seg)
		t0 := time.Now()
		for i := 0; i < iters; i++ {
			pl, _ = c.Encode(seg)
		}
		emit("wire.encode_ns_per_word."+f.String(), float64(time.Since(t0))/iters/words)
		t0 = time.Now()
		for i := 0; i < iters; i++ {
			c.Decode(dst, pl)
		}
		emit("wire.decode_ns_per_word."+f.String(), float64(time.Since(t0))/iters/words)
	}

	const vals = 4096
	list := make([]int64, vals)
	for i := range list {
		list[i] = int64(i*37 + i%7) // increasing, as vertex lists are
	}
	c := &wire.Codec{Team: team, Loc: machine.Local}
	pl, _ := c.EncodeList(list)
	out := make([]int64, 0, vals)
	t0 := time.Now()
	for i := 0; i < iters; i++ {
		pl, _ = c.EncodeList(list)
	}
	emit("wire.list_encode_ns_per_val", float64(time.Since(t0))/iters/vals)
	t0 = time.Now()
	for i := 0; i < iters; i++ {
		out, _ = c.DecodeList(pl, out[:0])
	}
	emit("wire.list_decode_ns_per_val", float64(time.Since(t0))/iters/vals)
}

// selectEngine asks the analytic selector about the comm16 / grid2d
// cell (scale 18, 16 nodes).
func selectEngine() numabfs.EngineChoice {
	cell := engineSpec{Scale: 18, Nodes: 16}
	return engine.Select(machineFor(cell), cell.Scale, cell.Nodes)
}

// fig9HostSeconds times the Fig. 9 driver at the size the tier-1 tests
// run it, on one host core's worth of cells at a time.
func fig9HostSeconds() (float64, error) {
	t0 := time.Now()
	_, err := experiments.Fig9(experiments.Spec{BaseScale: 13, Roots: 2, Parallel: 1})
	return time.Since(t0).Seconds(), err
}
