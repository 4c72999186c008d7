package bfs

import (
	"fmt"

	"numabfs/internal/bitmap"
	"numabfs/internal/chassis"
	"numabfs/internal/collective"
	"numabfs/internal/graph"
	"numabfs/internal/machine"
	"numabfs/internal/mpi"
	"numabfs/internal/obs"
	"numabfs/internal/omp"
	"numabfs/internal/rmat"
	"numabfs/internal/wire"
)

// Runner owns one simulated BFS job: the world of ranks, the partitioned
// graph, and the per-rank state. Build one with NewRunner, call Setup
// once (kernel 1), then RunRoot for each BFS root (kernel 2).
type Runner struct {
	// Core is the world, the fault/obs plumbing, the crash-retry loop and
	// the result tail; Graph1D the partition and the per-member CSRs.
	chassis.Core
	chassis.Graph1D
	// Ladder carries Opts and NC (NC.World is the group of all active
	// members), and what the optimization level decides about the
	// frontier buffers and their allgathers.
	Ladder

	cfg machine.Config
	pl  machine.Placement

	// members maps partition position -> rank: the active member list the
	// partition, the layouts, the groups and the states are all indexed
	// by. posOf is the inverse (-1 for parked spares and dead ranks). At
	// full membership without spares, position == rank. A spare
	// promotion re-binds a position to another rank.
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
}

// rankState is the per-member algorithm state, indexed by partition
// position. A spare promotion re-binds the state to the spare's Proc —
// the state (and so the partition slot) survives the rank.
type rankState struct {
	chassis.Ledger
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
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	r := &Runner{cfg: cfg}
	var err error
	if r.Core, err = chassis.NewCore(cfg, policy, params, r.ledgers); err != nil {
		return nil, err
	}
	w := r.W
	r.pl = w.Placement()
	r.Ladder = NewLadder(opts, r.pl)
	np := w.NumProcs()
	ppn := w.ProcsPerNode()
	if opts.SpareRanks >= ppn {
		return nil, fmt.Errorf("bfs: %d spare ranks per node leaves no active rank (ppn %d)", opts.SpareRanks, ppn)
	}
	// The last SpareRanks ranks of every node are parked as hot spares;
	// the partition covers the active members only. Each node's members
	// stay contiguous, which the node communicator requires.
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
	r.Graph1D = chassis.NewGraph1D(n, active)
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

// ledgers appends the members' ledgers in partition-position order, the
// order their breakdowns are averaged in.
func (r *Runner) ledgers(buf []*chassis.Ledger) []*chassis.Ledger {
	for _, rs := range r.states {
		buf = append(buf, &rs.Ledger)
	}
	return buf
}

// Setup runs distributed construction (kernel 1) and allocates per-rank
// BFS state. Must be called exactly once before RunRoot.
func (r *Runner) Setup() {
	n := r.Params.NumVertices()
	words := (n + 63) / 64
	sumWords := r.sumLayout.TotalWords()
	r.W.Run(func(p *mpi.Proc) {
		pos := r.posOf[p.Rank()]
		csr := r.Build(p, r.NC.World, pos, r.Params, r.Opts.Dedup)
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
		rs.Track(rs.inqCodec, rs.sumCodec)
		if r.Chunks() > 0 {
			rs.ovChunk = rs.onOverlapChunk
			rs.ovBitLo, rs.ovBitHi = rs.shareBits()
		}
		r.states[pos] = rs
	})
	r.Built(&r.Core)
}

// summaryFromWords wraps a shared word slice as a Summary.
func summaryFromWords(words []uint64, n, g int64) *bitmap.Summary {
	return bitmap.WrapSummary(bitmap.FromWords(words, (n+g-1)/g), g, n)
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
type RootResult = chassis.Result

// RunRoot runs one BFS from root and returns its result. Rank clocks are
// reset, so TimeNs is the iteration's virtual duration. A planned rank
// crash reruns the iteration from the root (chassis.Core.Run); a
// permanent death first promotes a parked spare on the dead rank's node
// into its slot when Options.SpareRanks reserved one.
func (r *Runner) RunRoot(root int64) RootResult {
	if len(r.states) == 0 || r.states[0] == nil {
		panic("bfs: RunRoot before Setup")
	}
	r.Run(func(p *mpi.Proc) {
		r.states[r.posOf[p.Rank()]].runBFS(p, root)
	}, func(f *mpi.FaultError, floor float64) {
		if f.Permanent {
			r.promoteSpare(f.Rank, floor)
		}
	})
	res := RootResult{Root: root}
	r.Finish(&res.Summary, &r.states[0].Ledger)
	return res
}

// promoteSpare swaps a parked same-node hot spare into the dead rank's
// partition slot; with none left on the node the dead rank reruns in
// place. The state (CSR, bitmaps) stays bound to the slot, the partition
// map and every layout are untouched, and the spare adopts the slot's
// adjacency out of node scratch at shared-memory bandwidth. Call between
// runs only.
func (r *Runner) promoteSpare(deadRank int, floor float64) {
	node := r.W.Proc(deadRank).Node()
	if len(r.nodeSpares[node]) == 0 {
		return
	}
	spare := r.nodeSpares[node][0]
	r.nodeSpares[node] = r.nodeSpares[node][1:]
	deadPos := r.posOf[deadRank]
	r.W.Promote(spare, deadRank)
	r.members[deadPos] = spare
	r.posOf[deadRank] = -1
	r.posOf[spare] = deadPos
	r.NC = collective.NewNodeCommRanks(r.W, r.members)

	rs := r.states[deadPos]
	rs.ParkReown(r.ReownCostNs(rs.csr.BytesApprox(), node, node))
	r.W.Proc(spare).Obs().FaultEvent("promote", floor)
	r.W.Proc(r.members[0]).Obs().Sample(obs.GaugeLiveRanks, floor, float64(len(r.members)))
}
