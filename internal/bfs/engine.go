package bfs

import (
	"fmt"

	"numabfs/internal/bitmap"
	"numabfs/internal/collective"
	"numabfs/internal/fault"
	"numabfs/internal/graph"
	"numabfs/internal/machine"
	"numabfs/internal/mpi"
	"numabfs/internal/obs"
	"numabfs/internal/omp"
	"numabfs/internal/rmat"
	"numabfs/internal/simnet"
	"numabfs/internal/trace"
	"numabfs/internal/wire"
)

// Runner owns one simulated BFS job: the world of ranks, the partitioned
// graph, and the per-rank state. Build one with NewRunner, call Setup
// once (kernel 1), then RunRoot for each BFS root (kernel 2).
type Runner struct {
	W *mpi.World
	// Ladder carries Opts and NC, and what the optimization level
	// decides about the frontier buffers and their allgathers.
	Ladder
	AllGroup *collective.Group
	Part     graph.Partition
	Params   rmat.Params

	cfg machine.Config
	pl  machine.Placement

	// members maps partition position -> rank: the active member list the
	// partition, the layouts, the groups and the states are all indexed
	// by. posOf is the inverse (-1 for parked spares and dead ranks). At
	// full membership without spares, position == rank. Survivor
	// repartitioning (RecoverShrink) removes a position; spare promotion
	// (RecoverSpare) re-binds one to another rank.
	members []int
	posOf   []int
	// nodeSpares lists each node's parked spare ranks, lowest first,
	// consumed by promotions.
	nodeSpares [][]int

	// wordLayout maps position -> in_queue word segment; sumLayout maps
	// position -> summary word segment (even split).
	wordLayout collective.Layout
	sumLayout  collective.Layout

	inqBytes int64 // full in_queue size, for the cache model
	sumBytes int64 // full summary size

	states []*rankState

	// totalEdges is the number of directed adjacencies across all ranks,
	// used by the hybrid switch heuristic.
	totalEdges int64

	// SetupNs is the virtual time of distributed construction.
	SetupNs float64

	// faults is the active fault plan (InjectFaults); ckptOn enables
	// level-boundary checkpointing, only when the plan schedules a
	// crash — checkpoint copies have a modelled cost, so paying them
	// without a crash to survive would perturb every result.
	faults fault.Plan
	ckptOn bool

	// prebuilt, when non-nil, replaces distributed construction in Setup
	// with cached per-rank CSRs from an earlier identical build
	// (internal/graph500's graph cache); prebuiltNs is that build's
	// virtual construction time, reported as SetupNs.
	prebuilt   []*graph.CSR
	prebuiltNs float64
}

// rankState is the per-member algorithm state, indexed by partition
// position. A spare promotion re-binds the state to the spare's Proc —
// the state (and so the partition slot) survives the rank.
type rankState struct {
	r    *Runner
	pos  int // partition position == group position
	csr  *graph.CSR
	team omp.Team

	parent []int64 // per owned vertex; -1 unvisited

	inQ   *bitmap.Bitmap  // full bitmap over all vertices
	outQ  *bitmap.Bitmap  // full bitmap; only the owned segment is written
	inSum *bitmap.Summary // summary of inQ

	// inqCodec/sumCodec are the rank's wire codecs for the compressed
	// allgather level (nil below OptCompressedAllgather). One codec per
	// collective purpose: each holds its own encode scratch, and a
	// payload aliases that scratch until the ring completes — separate
	// codecs keep the in_queue and summary rings independent.
	inqCodec *wire.Codec
	sumCodec *wire.Codec

	queue, next []int64   // top-down frontier queues (owned vertices)
	send, recv  [][]int64 // top-down owner-routing buffers and the retained result table

	visitedEdges int64 // sum of degrees of vertices this rank visited
	visitedCount int64
	bd           trace.Breakdown
	levels       int
	levelStats   []trace.LevelStat

	// rec is the rank's observability stream (nil = tracing off; every
	// method on a nil stream no-ops).
	rec *obs.Rank

	// ckptCur/ckptPrev are the two newest level-boundary checkpoint
	// generations (internal/bfs/checkpoint.go); nil unless the active
	// fault plan schedules a crash. ckptPool recycles dropped
	// generations (their snapshot slices keep capacity), so steady-state
	// checkpointing allocates nothing across levels and roots.
	ckptCur  *checkpoint
	ckptPrev *checkpoint
	ckptPool []*checkpoint

	// pendingRecoveryNs carries the full-rerun recovery cost (the
	// detection-timeout floor) across reset(), which wipes bd.
	// pendingReownNs is the modelled cost of re-owning a dead rank's
	// state (adjacency re-fetch, checkpoint handoff), parked by a shrink
	// or promotion and charged to the Reown phase at the next restore.
	pendingRecoveryNs float64
	pendingReownNs    float64

	// Overlap-level (OptOverlapAllgather) state: the collective's
	// hidden/exposed ledger, the cached per-chunk rebuild hook, the
	// rank's summary-share bit range, and the chunk-rebuild bookkeeping
	// (current contiguous landed word run, rebuilt-up-to bit, and the
	// granule-aligned intervals already rebuilt this level).
	ov                   collective.Overlap
	ovChunk              func(w0, w1 int64) float64
	ovBitLo, ovBitHi     int64
	ovRunStart, ovRunEnd int64
	ovReb                int64
	ovDone               []bitSpan
}

// NewRunner builds a runner over cfg with the given placement policy.
func NewRunner(cfg machine.Config, policy machine.Policy, params rmat.Params, opts Options) (*Runner, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := params.Validate(); err != nil {
		return nil, err
	}
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	pl := machine.PlacementFor(cfg, policy)
	w := mpi.NewWorld(cfg, pl)
	np := w.NumProcs()
	ppn := w.ProcsPerNode()
	if opts.SpareRanks >= ppn {
		return nil, fmt.Errorf("bfs: %d spare ranks per node leaves no active rank (ppn %d)", opts.SpareRanks, ppn)
	}
	// The last SpareRanks ranks of every node are parked as hot spares;
	// the partition covers the active members only. Each node's members
	// stay contiguous, which the node communicator requires.
	r := &Runner{
		W:      w,
		Ladder: NewLadder(opts, pl),
		Params: params,
		cfg:    cfg,
		pl:     pl,
	}
	r.posOf = make([]int, np)
	r.nodeSpares = make([][]int, cfg.Nodes)
	var spares []int
	for rank := 0; rank < np; rank++ {
		if rank%ppn < ppn-opts.SpareRanks {
			r.posOf[rank] = len(r.members)
			r.members = append(r.members, rank)
		} else {
			r.posOf[rank] = -1
			node := rank / ppn
			r.nodeSpares[node] = append(r.nodeSpares[node], rank)
			spares = append(spares, rank)
		}
	}
	if len(spares) > 0 {
		w.Park(spares)
	}
	active := len(r.members)
	n := params.NumVertices()
	if n < int64(active)*64 {
		return nil, fmt.Errorf("bfs: scale %d too small for %d active ranks (need >= 64 vertices per rank)", params.Scale, active)
	}
	r.Part = graph.NewPartition(n, active)
	r.AllGroup = collective.NewGroup(w, r.members)
	r.NC = collective.NewNodeCommRanks(w, r.members)
	r.wordLayout = collective.SegLayout(r.Part.WordOffsets())
	words := (n + 63) / 64
	r.inqBytes = words * 8
	sumWords := (n/opts.Granularity + 63) / 64
	if sumWords < 1 {
		sumWords = 1
	}
	r.sumLayout = collective.EvenLayout(sumWords, active)
	r.sumBytes = sumWords * 8
	r.states = make([]*rankState, active)
	return r, nil
}

// InjectFaults installs a deterministic fault plan (internal/fault) for
// all subsequent RunRoot calls: bandwidth degradation, stragglers and
// jitter perturb the modelled times; a scheduled rank crash additionally
// turns on level-boundary checkpointing so the iteration recovers and
// completes instead of panicking. Call after Setup — construction
// (kernel 1) is not checkpointed, and the paper's perturbation study
// targets the traversal. The machine's configured weak node persists
// underneath the plan.
func (r *Runner) InjectFaults(plan fault.Plan) error {
	if err := r.W.InjectFaults(plan); err != nil {
		return err
	}
	r.faults = plan
	r.ckptOn = len(plan.Crashes) > 0
	return nil
}

// AttachObs routes the runner's world through an observability session:
// per-rank span timelines, collective spans, and communication counters
// (internal/obs). Call before Setup so the construction phase is
// recorded too. Tracing never advances virtual time — results are
// identical with and without a session.
func (r *Runner) AttachObs(s *obs.Session) { r.W.AttachObs(s) }

// UsePrebuilt installs per-rank CSRs cached from an earlier build with
// identical parameters (scale, edge factor, seed, rank count, dedup):
// Setup then skips distributed construction (kernel 1) and reports
// setupNs — the cached build's virtual construction time — as SetupNs,
// so results are bit-identical to a fresh build. Call before Setup.
func (r *Runner) UsePrebuilt(csrs []*graph.CSR, setupNs float64) error {
	if len(csrs) != len(r.states) {
		return fmt.Errorf("bfs: prebuilt CSRs for %d ranks, world has %d", len(csrs), len(r.states))
	}
	r.prebuilt = csrs
	r.prebuiltNs = setupNs
	return nil
}

// CSRs returns each rank's CSR (aliases; the graph is read-only during
// BFS). Valid after Setup; used to populate the graph cache.
func (r *Runner) CSRs() []*graph.CSR {
	out := make([]*graph.CSR, len(r.states))
	for i, rs := range r.states {
		out[i] = rs.csr
	}
	return out
}

// Setup runs distributed construction (kernel 1) and allocates per-rank
// BFS state. Must be called exactly once before RunRoot.
func (r *Runner) Setup() {
	n := r.Params.NumVertices()
	words := (n + 63) / 64
	sumWords := r.sumLayout.TotalWords()
	r.W.Run(func(p *mpi.Proc) {
		pos := r.posOf[p.Rank()]
		var csr *graph.CSR
		if r.prebuilt != nil {
			csr = r.prebuilt[pos]
		} else {
			csr = graph.BuildDistributed(p, r.AllGroup, r.Part, r.Params, r.Opts.Dedup)
		}
		rs := &rankState{
			r:    r,
			pos:  pos,
			csr:  csr,
			team: omp.TeamFor(r.cfg, r.pl),
		}
		rs.parent = make([]int64, csr.NumLocal())

		if r.InqShared {
			rs.inQ = bitmap.FromWords(p.SharedWords("in_queue", words), n)
		} else {
			rs.inQ = bitmap.New(n)
		}
		if r.OutShared {
			rs.outQ = bitmap.FromWords(p.SharedWords("out_queue", words), n)
			rs.inSum = summaryFromWords(p.SharedWords("in_summary", sumWords), n, r.Opts.Granularity)
		} else {
			rs.outQ = bitmap.New(n)
			rs.inSum = bitmap.NewSummary(n, r.Opts.Granularity)
		}
		rs.send = make([][]int64, len(r.members))
		rs.inqCodec = r.Codec(rs.team, r.InqLoc)
		rs.sumCodec = r.Codec(rs.team, r.SumLoc)
		if r.Chunks() > 0 {
			rs.ovChunk = rs.onOverlapChunk
			rs.ovBitLo, rs.ovBitHi = rs.shareBits()
		}
		r.states[pos] = rs
	})
	r.SetupNs = r.W.MaxClock()
	if r.prebuilt != nil {
		r.SetupNs = r.prebuiltNs
	}
	r.W.ResetClocks()
	r.totalEdges = 0
	for _, rs := range r.states {
		r.totalEdges += rs.csr.NumEdges()
	}
}

// summaryFromWords wraps a shared word slice as a Summary.
func summaryFromWords(words []uint64, n, g int64) *bitmap.Summary {
	return bitmap.WrapSummary(bitmap.FromWords(words, (n+g-1)/g), g, n)
}

// State returns rank r's state (post-run inspection and tests).
func (r *Runner) State(rank int) *RankView {
	rs := r.states[rank]
	return &RankView{
		CSR:          rs.csr,
		Parent:       rs.parent,
		Breakdown:    rs.bd,
		VisitedEdges: rs.visitedEdges,
		VisitedCount: rs.visitedCount,
	}
}

// RankView is a read-only view of a rank's results.
type RankView struct {
	CSR          *graph.CSR
	Parent       []int64
	Breakdown    trace.Breakdown
	VisitedEdges int64
	VisitedCount int64
}

// HasEdgeGlobal reports whether vertex v has any incident edge, by asking
// its owner's CSR. Used for Graph500 root selection.
func (r *Runner) HasEdgeGlobal(v int64) bool {
	rs := r.states[r.Part.Owner(v)]
	return rs.csr.HasEdge(v)
}

// ParentArrays returns each rank's parent array (aliases; do not modify).
func (r *Runner) ParentArrays() [][]int64 {
	out := make([][]int64, len(r.states))
	for i, rs := range r.states {
		out[i] = rs.parent
	}
	return out
}

// RootResult summarizes one BFS iteration (one root).
type RootResult struct {
	Root           int64
	TimeNs         float64 // virtual wall time of the iteration
	TraversedEdges int64   // undirected edges in the traversed component
	Visited        int64   // vertices reached
	TEPS           float64
	Levels         int
	Breakdown      trace.Breakdown // mean across ranks
	// LevelStats is the frontier growth curve (rank 0's view; the
	// frontier values are allreduced and identical everywhere).
	LevelStats []trace.LevelStat
	// CommBytes is the exact total network volume (intra- plus
	// inter-node MPI bytes) of the iteration. Under
	// OptCompressedAllgather these are wire bytes — what actually
	// crossed the network after encoding.
	CommBytes int64
	// RawCommBytes is the logical (pre-compression) volume; it equals
	// CommBytes except under OptCompressedAllgather, where the gap is
	// the compression saving.
	RawCommBytes int64
	// Wire aggregates every rank's codec decisions for the iteration
	// (segments per format, raw vs wire bytes); zero below
	// OptCompressedAllgather.
	Wire wire.Stats
	// Xport is the reliable-transport ledger of the iteration: protocol
	// overhead bytes (within CommBytes) and retransmit / corruption /
	// duplicate / reorder / ack counts. All-zero unless the fault plan
	// declares lossy links.
	Xport simnet.Xport
	// Faults lists the rank crashes this iteration survived via
	// checkpoint recovery, in recovery order; empty when no crash fired.
	// When non-empty, CommBytes/RawCommBytes and Wire include the lost
	// attempts' partial traffic (those bytes really crossed the modelled
	// network), so they — unlike TimeNs, TEPS, the parent trees and the
	// Breakdown — are not bit-reproducible across host schedules.
	Faults []*mpi.FaultError
	// MTTRNs is the modelled mean-time-to-repair total of the iteration:
	// for each survived crash, the failure-detection latency (lease
	// expiry for permanent deaths, the plain timeout for transient ones)
	// plus the longest re-own transfer any survivor paid. Zero when no
	// crash fired.
	MTTRNs float64
	// Epoch is the world-view number the iteration finished on: 0 until
	// a shrink or promotion, stepped by each (mpi.World.Epoch).
	Epoch int
}

// RunRoot runs one BFS from root and returns its result. Rank clocks are
// reset, so TimeNs is the iteration's virtual duration.
func (r *Runner) RunRoot(root int64) RootResult {
	if len(r.states) == 0 || r.states[0] == nil {
		panic("bfs: RunRoot before Setup")
	}
	r.W.ResetClocks()
	for _, rs := range r.states {
		rs.recycleCkpt(rs.ckptCur)
		rs.recycleCkpt(rs.ckptPrev)
		rs.ckptCur, rs.ckptPrev = nil, nil
		rs.pendingRecoveryNs = 0
		rs.pendingReownNs = 0
		if rs.inqCodec != nil {
			rs.inqCodec.ResetStats()
			rs.sumCodec.ResetStats()
		}
	}
	var faults []*mpi.FaultError
	var mttrNs float64
	err := r.W.TryRun(func(p *mpi.Proc) {
		r.states[r.posOf[p.Rank()]].runBFS(p, root)
	})
	for attempt := 0; err != nil; attempt++ {
		f, ok := err.(*mpi.FaultError)
		if !ok || f.Kind != fault.KindCrash || !r.ckptOn || attempt >= len(r.faults.Crashes) {
			// A programming bug, more failures than the plan can produce,
			// or a dead link (KindLinkLoss) — not recoverable here: a
			// crashed rank restarts from a checkpoint, but replaying past
			// a permanently exhausted link would just exhaust it again.
			panic(err)
		}
		faults = append(faults, f)
		inj := r.W.Injector()
		inj.Disarm(f.Rank, f.AtNs)
		target := r.recoveryTarget(r.posOf[f.Rank])
		// Detection: permanent deaths are observed when the dead rank's
		// last heartbeat lease expires; transient crashes keep the
		// historical flat timeout so existing plans reproduce exactly.
		var floor float64
		if f.Permanent {
			floor = inj.DetectionTimeNs(f.AtNs)
			r.W.Proc(f.Rank).Obs().FaultEvent("detect", floor)
		} else {
			floor = f.AtNs + inj.DetectTimeoutNs()
		}
		// A permanent death under a non-rerun policy removes the rank
		// from the world before the survivors resume: spare promotion
		// first (falling back to shrink when the node is out of spares),
		// else survivor repartitioning.
		if f.Permanent && r.Opts.Recovery != RecoverRerun {
			if r.Opts.Recovery != RecoverSpare || !r.promoteSpare(f.Rank, floor) {
				r.shrinkAfter(f.Rank, floor, target)
			}
		}
		var maxReown float64
		for _, rs := range r.states {
			if rs.pendingReownNs > maxReown {
				maxReown = rs.pendingReownNs
			}
		}
		mttrNs += (floor - f.AtNs) + maxReown
		r.W.PrepareRecovery()
		err = r.W.TryRun(func(p *mpi.Proc) {
			rs := r.states[r.posOf[p.Rank()]]
			if st := rs.restoreCheckpoint(p, target, floor); st != nil {
				rs.levelLoop(p, st)
			} else {
				// Crash predates the first checkpoint: rerun the
				// iteration from the root (clocks stay past the crash).
				rs.runBFS(p, root)
			}
		})
	}
	res := RootResult{
		Root: root, TimeNs: r.W.MaxClock(), Faults: faults,
		MTTRNs: mttrNs, Epoch: r.W.Epoch(),
	}
	var bd trace.Breakdown
	for _, rs := range r.states {
		res.TraversedEdges += rs.visitedEdges
		res.Visited += rs.visitedCount
		bd.Merge(rs.bd)
		if rs.levels > res.Levels {
			res.Levels = rs.levels
		}
	}
	res.TraversedEdges /= 2 // each undirected edge counted at both endpoints
	bd.Scale(1 / float64(len(r.states)))
	bd.TDLevels = r.states[0].bd.TDLevels
	bd.BULevels = r.states[0].bd.BULevels
	bd.BUCommCount = r.states[0].bd.BUCommCount
	res.Breakdown = bd
	res.LevelStats = append([]trace.LevelStat(nil), r.states[0].levelStats...)
	vol := r.W.Net().Volume()
	res.CommBytes = vol.IntraBytes + vol.InterBytes
	res.RawCommBytes = vol.RawIntraBytes + vol.RawInterBytes
	res.Xport = vol.Xport
	for _, rs := range r.states {
		if rs.inqCodec != nil {
			res.Wire.Add(rs.inqCodec.Stats())
			res.Wire.Add(rs.sumCodec.Stats())
		}
	}
	if res.TimeNs > 0 {
		res.TEPS = float64(res.TraversedEdges) / (res.TimeNs / 1e9)
	}
	return res
}
