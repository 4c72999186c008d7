// Package msbfs implements bit-parallel multi-source BFS (MS-BFS, after
// Then et al.): up to 64 roots traverse the graph together, one bit-lane
// per root packed into a per-vertex uint64 lane word. A single adjacency
// scan tests or updates all lanes at once, and — the point of the
// exercise on a NUMA cluster — the whole batch shares ONE frontier
// allgather and ONE summary allgather per level where a lane-at-a-time
// run pays them per root per level. The engine reuses the paper's
// optimization ladder verbatim (node-shared planes, leader-based /
// parallel / compressed allgathers through internal/collective and
// internal/wire); only the overlap level is out of scope, because the
// chunk-rebuild pipeline is specialized to single-bit summaries.
//
// Determinism contract: every lane's parent tree is a pure function of
// that lane's own frontier. Top-down claims run in ascending vertex
// order, remote ones in sender-position order; bottom-up takes the first
// hit in adjacency order per lane (the lane summary's per-lane OR keeps
// the short-circuit exact). A root gets the same tree in a batch of 64
// as alone — what internal/graph500's batched validation asserts — and
// the engine keeps no parents: it records each visit's depth and
// direction, and LaneParents derives the trees by the same rules.
package msbfs

import (
	"fmt"

	"numabfs/internal/bfs"
	"numabfs/internal/bitmap"
	"numabfs/internal/chassis"
	"numabfs/internal/collective"
	"numabfs/internal/graph"
	"numabfs/internal/machine"
	"numabfs/internal/mpi"
	"numabfs/internal/omp"
	"numabfs/internal/rmat"
	"numabfs/internal/wire"
)

// ValidateOptions checks a bfs.Options for the batched engine: the
// shared/parallel/compressed allgather ladder applies verbatim, the
// overlap level does not.
func ValidateOptions(o bfs.Options) error {
	if err := o.Validate(); err != nil {
		return err
	}
	if o.Opt > bfs.OptCompressedAllgather {
		return fmt.Errorf("msbfs: optimization level %q not supported by the batched engine (max %q)",
			o.Opt, bfs.OptCompressedAllgather)
	}
	return nil
}

// Runner owns one simulated multi-source BFS job. Build with NewRunner,
// call Setup once (kernel 1), then RunBatch per batch of up to 64 roots.
type Runner struct {
	// Core is the world, the fault/obs plumbing, the crash-retry loop
	// (a crashed batch reruns from its roots) and the result tail;
	// Graph1D the partition and the per-member CSRs, the very ones bfs
	// builds.
	chassis.Core
	chassis.Graph1D
	// Ladder carries Opts and NC (NC.World is the group of all members),
	// and what the optimization level decides about the planes and their
	// allgathers — the same rungs as bfs's in_queue/out_queue/summary.
	bfs.Ladder

	cfg machine.Config
	pl  machine.Placement

	// planeLayout maps position -> lane-plane word segment (one word per
	// vertex, so plane segments follow the vertex partition directly);
	// sumLayout maps position -> lane-summary word segment (one word per
	// granule, even split).
	planeLayout collective.Layout
	sumLayout   collective.Layout

	planeBytes int64 // full lane-plane size, for the cache model
	sumBytes   int64 // full lane-summary size

	states []*laneState
	// recs holds every member's visit records (laneState.rec) side by
	// side, so a derivation reads a neighbour's record with one load.
	recs []laneRec

	// roots are the last batch's roots, in lane order; parents caches its
	// derived lane trees (nil until the first LaneParents after it).
	roots   []int64
	parents [][]int64
}

// laneState is the per-member algorithm state, indexed by position.
type laneState struct {
	chassis.Ledger
	r    *Runner
	pos  int
	csr  *graph.CSR
	team omp.Team

	all uint64 // mask of the current batch's lanes

	// rec[i] is owned vertex (Lo+i)'s visit record; no parent is kept
	// (LaneParents derives the trees, parents.go).
	rec []laneRec

	inPlane  *bitmap.LanePlane   // full frontier plane over all vertices
	outPlane *bitmap.LanePlane   // next frontier; only the owned segment is written
	inSum    *bitmap.LaneSummary // lane summary of inPlane

	// planeCodec/sumCodec are the compressed-allgather wire codecs (nil
	// below OptCompressedAllgather), one per collective purpose.
	planeCodec *wire.Codec
	sumCodec   *wire.Codec

	// Top-down owner routing: (child, parent, laneMask) triples out, and
	// the retained table of what arrived.
	send, recv [][]int64

	visitedEdges [64]int64 // per lane: degrees of vertices this rank visited
	visitedCount [64]int64
	laneLevels   [64]int // per lane: level count at termination

	rounds int64 // plane+summary allgather boundaries this batch
}

// NewRunner builds a batched runner over cfg with the given placement
// policy. Options follow bfs semantics restricted by ValidateOptions.
func NewRunner(cfg machine.Config, policy machine.Policy, params rmat.Params, opts bfs.Options) (*Runner, error) {
	if err := ValidateOptions(opts); err != nil {
		return nil, err
	}
	r := &Runner{cfg: cfg}
	var err error
	if r.Core, err = chassis.NewCore(cfg, policy, params, opts.SpareRanks, r.ledgers); err != nil {
		return nil, err
	}
	r.pl = r.W.Placement()
	r.Ladder = bfs.NewLadder(opts, r.pl)
	np := len(r.Members.Ranks())
	n := params.NumVertices()
	if n < int64(np)*64 {
		return nil, fmt.Errorf("msbfs: scale %d too small for %d active ranks (need >= 64 vertices per rank)", params.Scale, np)
	}
	r.Graph1D = chassis.NewGraph1D(n, np)
	r.NC = collective.NewNodeCommRanks(r.W, r.Members.Ranks())
	// One plane word per vertex: the plane layout IS the vertex
	// partition, so the same allgather code that moves bitmap words
	// moves lane words.
	r.planeLayout = collective.SegLayout(r.Part.Offsets())
	r.planeBytes = n * 8
	granules := (n + opts.Granularity - 1) / opts.Granularity
	r.sumLayout = collective.EvenLayout(granules, np)
	r.sumBytes = granules * 8
	r.states = make([]*laneState, np)
	return r, nil
}

// ledgers appends the members' ledgers in position order.
func (r *Runner) ledgers(buf []*chassis.Ledger) []*chassis.Ledger {
	for _, ls := range r.states {
		buf = append(buf, &ls.Ledger)
	}
	return buf
}

// Setup runs distributed construction (kernel 1) and allocates the
// per-rank lane state. Must be called exactly once before RunBatch.
func (r *Runner) Setup() {
	n := r.Params.NumVertices()
	granules := r.sumLayout.TotalWords()
	r.recs = make([]laneRec, n)
	r.W.Run(func(p *mpi.Proc) {
		pos := r.Members.Pos(p.Rank())
		csr := r.Build(p, r.NC.World, pos, r.Params, r.Opts.Dedup)
		ls := &laneState{
			r:    r,
			pos:  pos,
			csr:  csr,
			team: omp.TeamFor(r.cfg, r.pl),
		}
		ls.rec = r.recs[csr.Lo:csr.Hi]

		if r.InqShared {
			ls.inPlane = bitmap.PlaneFromWords(p.SharedWords("ms_in_plane", n), n)
		} else {
			ls.inPlane = bitmap.NewLanePlane(n)
		}
		if r.OutShared {
			ls.outPlane = bitmap.PlaneFromWords(p.SharedWords("ms_out_plane", n), n)
			ls.inSum = bitmap.WrapLaneSummary(
				bitmap.PlaneFromWords(p.SharedWords("ms_in_summary", granules), granules),
				r.Opts.Granularity, n)
		} else {
			ls.outPlane = bitmap.NewLanePlane(n)
			ls.inSum = bitmap.NewLaneSummary(n, r.Opts.Granularity)
		}
		ls.send = make([][]int64, len(r.states))
		ls.planeCodec = r.Codec(ls.team, r.InqLoc)
		ls.sumCodec = r.Codec(ls.team, r.SumLoc)
		ls.Track(ls.planeCodec, ls.sumCodec)
		r.states[pos] = ls
	})
	r.Built(&r.Core)
}

// regroup rebuilds the node communicator after a spare took position
// pos, whose state stays bound to it; the spare adopts its adjacency.
func (r *Runner) regroup(pos int) int64 {
	r.NC = collective.NewNodeCommRanks(r.W, r.Members.Ranks())
	return r.states[pos].csr.BytesApprox()
}

// visBytes is the visited lane-word footprint for the cache model (the
// structure every claim probes): the modelled word, not the host record.
func (ls *laneState) visBytes() int64 { return ls.csr.NumLocal() * 8 }
