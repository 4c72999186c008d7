package bfs

import (
	"numabfs/internal/collective"
	"numabfs/internal/machine"
	"numabfs/internal/mpi"
	"numabfs/internal/omp"
	"numabfs/internal/wire"
)

// rungs is the optimization ladder of Fig. 9 as data: what each level
// decides about the two allgathers of Fig. 1. Sharing, compression and
// pipelining are cumulative, so they are thresholds, not columns:
// in_queue is node-shared from OptShareInQueue on, out_queue and both
// summaries from OptShareAll on; segments travel encoded from
// OptCompressedAllgather on; the in_queue exchange (never the summary's:
// it is too small for chunking to hide anything) is pipelined at
// OptOverlapAllgather.
var rungs = [...]struct{ inq, sum collective.Scheme }{
	OptOriginal:            {collective.SchemeLibrary, collective.SchemeLibrary},
	OptShareInQueue:        {collective.SchemeSharedIn, collective.SchemeLibrary}, // the summary is still private
	OptShareAll:            {collective.SchemeSharedAll, collective.SchemeSharedAll},
	OptParAllgather:        {collective.SchemeParallel, collective.SchemeParallel},
	OptCompressedAllgather: {collective.SchemeParallel, collective.SchemeParallel},
	OptOverlapAllgather:    {collective.SchemeParallel, collective.SchemeParallel},
}

// Ladder is the ladder's decision for one job — options, placement and
// membership — stated once for both engines that climb it: the 1-D
// engine here and the batched engine (internal/msbfs) embed one.
type Ladder struct {
	Opts Options
	// NC is the node-aware view of the active members; rebuilt by the
	// owner when the membership changes.
	NC *collective.NodeComm

	// InqLoc, OutLoc and SumLoc are where in_queue, out_queue and
	// in_queue_summary live; InqShared and OutShared say whether a
	// node's ranks map one copy (out_queue shares together with the
	// summaries: "Share all means in_queue, out_queue, in_queue_summary,
	// and out_queue_summary are all shared" — Fig. 9).
	InqLoc, OutLoc, SumLoc machine.Locality
	InqShared, OutShared   bool
}

// NewLadder resolves opts against a placement. With one rank per node
// "shared" degenerates to the rank's own interleaved memory.
func NewLadder(opts Options, pl machine.Placement) Ladder {
	shared := machine.NodeShared
	if pl.ProcsPerNode == 1 {
		shared = pl.PrivateLoc
	}
	ld := Ladder{
		Opts: opts, InqLoc: pl.PrivateLoc, OutLoc: pl.PrivateLoc, SumLoc: pl.PrivateLoc,
		InqShared: opts.Opt >= OptShareInQueue, OutShared: opts.Opt >= OptShareAll,
	}
	if ld.InqShared {
		ld.InqLoc = shared
	}
	if ld.OutShared {
		ld.OutLoc, ld.SumLoc = shared, shared
	}
	return ld
}

// Codec returns a rank's wire codec for segments living at loc, nil
// below OptCompressedAllgather. Build one per collective purpose: each
// holds its own encode scratch, and a payload aliases that scratch until
// the ring completes — separate codecs keep the in_queue and summary
// rings independent.
func (ld *Ladder) Codec(team omp.Team, loc machine.Locality) *wire.Codec {
	if ld.Opts.Opt < OptCompressedAllgather {
		return nil
	}
	return &wire.Codec{
		Team: team, Loc: loc,
		Force:            ld.Opts.WireFormat,
		SparseMaxDensity: ld.Opts.WireSparseDensity,
	}
}

// Chunks is the pipeline depth of the in_queue exchange: 0 (blocking)
// below OptOverlapAllgather, else Options.OverlapSegments with a default
// of two — two chunks already let each transfer hide the previous
// chunk's decode and summary rebuild without paying much extra
// per-message latency.
func (ld *Ladder) Chunks() int {
	if ld.Opts.Opt < OptOverlapAllgather {
		return 0
	}
	if ld.Opts.OverlapSegments == 0 {
		return 2
	}
	return ld.Opts.OverlapSegments
}

// AllgatherFrontier runs the in_queue allgather of Fig. 1: on entry the
// new frontier words of partition position pos sit in its segment of
// outq (layout l); on return the rank's view of inq holds every
// segment. The library path knows nothing of staging, so at OptOriginal
// the rank copies its segment into its private in_queue itself.
func (ld *Ladder) AllgatherFrontier(p *mpi.Proc, team omp.Team, inq, outq []uint64, l collective.Layout, pos int, x collective.Exchange) {
	scheme := rungs[ld.Opts.Opt].inq
	if scheme == collective.SchemeLibrary {
		d, c := l.Displs[pos], l.Counts[pos]
		copy(inq[d:d+c], outq[d:d+c])
		p.Compute(team.Parallel(machine.PhaseLoad{SeqBytes: c * 16, SeqLoc: ld.InqLoc}))
		outq = nil
	}
	ld.NC.Allgather(p, scheme, inq, outq, l, x)
}

// AllgatherSummary runs the second, much smaller allgather of Fig. 1:
// every rank has rebuilt its share (layout l) of sum in place. The
// summary is far sparser than in_queue early on, so the same codec pays
// off.
func (ld *Ladder) AllgatherSummary(p *mpi.Proc, sum []uint64, l collective.Layout, c *wire.Codec) {
	ld.NC.Allgather(p, rungs[ld.Opts.Opt].sum, sum, nil, l, collective.Exchange{Codec: c})
}

// ShareRange returns the base range [lo, hi) covered by position pos's
// share of a summary laid out by l, `per` base items to a summary word,
// clamped to the n items there are. Every bound below n is a multiple of
// per and so granule-aligned; a share clamped away entirely comes back
// empty at n — which need not be aligned — and its owner has nothing to
// rebuild.
func ShareRange(l collective.Layout, pos int, per, n int64) (lo, hi int64) {
	lo = min(l.Displs[pos]*per, n)
	hi = min((l.Displs[pos]+l.Counts[pos])*per, n)
	return lo, hi
}
