package experiments

import (
	"fmt"

	"numabfs/internal/bfs"
	"numabfs/internal/graph500"
	"numabfs/internal/machine"
	"numabfs/internal/queryserv"
	"numabfs/internal/rmat"
)

// This file holds the MS-BFS figures: the amortization table (one
// 64-root batch vs 64 sequential traversals per optimization level) and
// the query-server offered-load sweep. Both run on a fixed two-node
// cluster at the spec's base scale — batching amortizes the per-level
// collectives, so the interesting axis is the optimization ladder and
// the admission policy, not node count.

// msbfsOpts is the optimization ladder the batched engine supports (the
// overlapped allgather is a single-frontier pipeline and stays gated
// out; see msbfs.ValidateOptions).
var msbfsOpts = []bfs.Opt{
	bfs.OptOriginal, bfs.OptShareInQueue, bfs.OptShareAll,
	bfs.OptParAllgather, bfs.OptCompressedAllgather,
}

// msbfsWorkloadSeed fixes the Poisson arrival stream of the load sweep.
const msbfsWorkloadSeed = 11

// batchSize resolves Spec.Batch: 0 means the full 64 lanes, anything
// else clamps to one uint64's worth.
func (s Spec) batchSize() int {
	if s.Batch == 0 {
		return 64
	}
	return min(max(s.Batch, 1), 64)
}

// msbfsConfig is the benchmark config of one MS-BFS cell: two nodes at
// the spec's base scale (no weak scaling — the figure sweeps the
// optimization ladder, not node count), under the Spec's fault plan.
func (s Spec) msbfsConfig(opt bfs.Opt) graph500.Config {
	cfg := s.own(graph500.Config{
		Machine: machine.Scaled(s.BaseScale, PaperBaseScale),
		Policy:  machine.PPN8Bind,
		Params:  rmat.Graph500(s.BaseScale),
		Opts:    optsAt(opt),
		Faults:  s.Faults,
	})
	cfg.Machine.Nodes, cfg.Machine.WeakNode = 2, -1
	return cfg
}

// ExtMSBFS compares one b-root batched traversal against b sequential
// single-root traversals of the same engine at every optimization level
// the batched engine supports: TEPS and virtual time of the batch, the
// plane-allgather rounds of each side, and the speedup and
// rounds-amortization ratios. Every cell validates each lane's parent
// tree against the Graph500 rules AND asserts bit-identity with the
// lane's sequential counterpart — the sequential runs double as the
// timing baseline and the correctness oracle.
func ExtMSBFS(s Spec) (*Table, error) {
	b := s.batchSize()
	t := &Table{
		Name: "Ext. msbfs",
		Title: fmt.Sprintf("Bit-parallel MS-BFS: one %d-root batch vs %d sequential runs (2 nodes, scale %d, validated lanes)",
			b, b, s.BaseScale),
		Columns: []string{"batch TEPS", "batch ms", "batch rounds", "seq ms", "seq rounds", "speedup", "rounds ratio"},
	}
	type msbfsOut struct {
		batchTEPS, batchNs, seqNs float64
		batchRounds, seqRounds    int64
	}
	cells := make([]string, len(msbfsOpts))
	for i, opt := range msbfsOpts {
		cells[i] = opt.String()
	}
	outs, err := gather(s, cells, func(cs Spec, i int) (msbfsOut, error) {
		gc := cs.msbfsConfig(msbfsOpts[i])
		r, err := graph500.NewBatchRunner(gc)
		if err != nil {
			return msbfsOut{}, err
		}
		roots, err := graph500.DrawRoots(gc.Params, b, r.HasEdgeGlobal)
		if err != nil {
			return msbfsOut{}, err
		}
		br := r.RunBatch(roots)
		if err := graph500.ValidateBatch(r, roots); err != nil {
			return msbfsOut{}, err
		}
		batched := make([][]int64, len(roots))
		for l := range roots {
			batched[l] = r.LaneParents(l)
		}
		o := msbfsOut{batchTEPS: br.TEPS, batchNs: br.TimeNs, batchRounds: br.AllgatherRounds}
		for l, root := range roots {
			sr := r.RunBatch([]int64{root})
			o.seqNs += sr.TimeNs
			o.seqRounds += sr.AllgatherRounds
			solo := r.LaneParents(0)
			for v := range solo {
				if solo[v] != batched[l][v] {
					return msbfsOut{}, fmt.Errorf("lane %d (root %d) vertex %d: batched parent %d, sequential parent %d",
						l, root, v, batched[l][v], solo[v])
				}
			}
		}
		return o, nil
	})
	if err != nil {
		return nil, err
	}
	for i, opt := range msbfsOpts {
		o := outs[i]
		speedup, ratio := 0.0, 0.0
		if o.batchNs > 0 {
			speedup = o.seqNs / o.batchNs
		}
		if o.batchRounds > 0 {
			ratio = float64(o.seqRounds) / float64(o.batchRounds)
		}
		t.AddRow("+ "+opt.String(), o.batchTEPS, o.batchNs/1e6, float64(o.batchRounds),
			o.seqNs/1e6, float64(o.seqRounds), speedup, ratio)
	}
	t.Notes = append(t.Notes,
		"one batched traversal serves every lane per adjacency scan, so the batch runs one compressed allgather per level where the sequential baseline runs one per level PER ROOT",
		fmt.Sprintf("rounds ratio approaches the lane count (%d): the headline amortization — a full batch does ~1/%dth the allgather rounds", b, b),
		"every cell Graph500-validates each lane's tree and asserts it bit-identical to the lane's own batch-of-one run — batching is a pure performance transformation",
		"acceptance: batch rounds strictly below seq rounds and batch ms strictly below seq ms on every row")
	return t, nil
}

// msbfsLoadLevels are the offered loads of the query-server sweep as
// fractions of the engine's full-batch capacity (lanes per batch
// duration): well under, at, and well over saturation.
var msbfsLoadLevels = []float64{0.25, 1, 4}

// ExtMSBFSLoad sweeps the query server's offered load under two
// admission policies — batch-of-one (latency-optimal, amortization-free)
// and fill-up-to-b with a fill timeout — and reports served throughput,
// batch fill, latency percentiles, and allgather rounds per query. The
// crossover is the figure's point: below saturation batch-1 wins on
// latency; past it the batched policy's amortized collectives hold
// latency while batch-1 queues without bound.
func ExtMSBFSLoad(s Spec) (*Table, error) {
	b := s.batchSize()
	t := &Table{
		Name: "Ext. msbfs-load",
		Title: fmt.Sprintf("MS-BFS query server under offered load (2 nodes, scale %d, %d queries/cell)",
			s.BaseScale, msbfsLoadQueries(b)),
		Columns: []string{"offered qps", "served qps", "mean fill", "p50 ms", "p95 ms", "p99 ms", "rounds/query"},
	}
	type loadCell struct {
		label    string
		maxBatch int
		load     float64
	}
	var cfgs []loadCell
	var cells []string
	for _, load := range msbfsLoadLevels {
		cfgs = append(cfgs,
			loadCell{fmt.Sprintf("batch-1 immediate @ %gx", load), 1, load},
			loadCell{fmt.Sprintf("batch-%d fill @ %gx", b, load), b, load})
		cells = append(cells, cfgs[len(cfgs)-2].label, cfgs[len(cfgs)-1].label)
	}
	type loadOut struct {
		offered float64
		res     *queryserv.Result
		queries int
	}
	outs, err := gather(s, cells, func(cs Spec, i int) (loadOut, error) {
		c := cfgs[i]
		gc := cs.msbfsConfig(bfs.OptCompressedAllgather)
		r, err := graph500.NewBatchRunner(gc)
		if err != nil {
			return loadOut{}, err
		}
		calib, err := queryserv.Calibrate(r, b)
		if err != nil {
			return loadOut{}, err
		}
		// A batch of one launches once the engine is free: the fill
		// timeout only bounds waits for lane-mates.
		policy := queryserv.Policy{MaxBatch: c.maxBatch, FillTimeoutNs: calib.FillTimeoutNs(cs.FillTimeoutNs)}
		nq := msbfsLoadQueries(b)
		queries := queryserv.PoissonWorkload(nq, c.load*calib.CapacityQPS,
			msbfsWorkloadSeed, gc.Params.NumVertices(), r.HasEdgeGlobal)
		res, err := queryserv.Serve(r, policy, queries)
		return loadOut{offered: c.load * calib.CapacityQPS, res: res, queries: nq}, err
	})
	if err != nil {
		return nil, err
	}
	for i, c := range cfgs {
		o := outs[i]
		t.AddRow(c.label, o.offered, o.res.ThroughputQPS, o.res.MeanBatchFill,
			o.res.LatencyPercentile(50)/1e6, o.res.LatencyPercentile(95)/1e6,
			o.res.LatencyPercentile(99)/1e6,
			float64(o.res.AllgatherRounds)/float64(o.queries))
	}
	t.Notes = append(t.Notes,
		"offered load is a multiple of the engine's calibrated full-batch capacity (lanes / batch duration); the same multiples stress the same operating points at every scale",
		"past 1x offered load batch-1 latency explodes (every query queues behind one traversal per predecessor) while the filled batches amortize one allgather round across up to the full lane count",
		fmt.Sprintf("fill timeout: %s", fillNote(s.FillTimeoutNs)))
	return t, nil
}

// msbfsLoadQueries sizes the load sweep's workload: a few batches'
// worth of queries, capped to keep the batch-1 cells affordable.
func msbfsLoadQueries(b int) int { return min(max(3*b, 8), 96) }

func fillNote(fillNs float64) string {
	if fillNs == 0 {
		return "2x the calibrated batch duration (default; override with -fill-timeout-ns)"
	}
	return fmt.Sprintf("%g ns (-fill-timeout-ns)", fillNs)
}
