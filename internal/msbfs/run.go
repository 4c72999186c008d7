package msbfs

import (
	"fmt"
	"math/bits"

	"numabfs/internal/bfs"
	"numabfs/internal/machine"
	"numabfs/internal/mpi"
	"numabfs/internal/trace"
)

// batchState is the lockstep control state of one batch. Every field is
// derived from allreduced per-lane vectors, so all ranks hold identical
// copies and the collective call pattern is identical by construction —
// the same invariant bfs.loopState maintains for one root, kept here
// per lane.
type batchState struct {
	active uint64 // lanes still traversing
	bu     uint64 // lanes currently in the bottom-up procedure
	nf     [64]int64
	mf     [64]int64
	prevNf [64]int64
	// visEdges[l] is lane l's explored directed-edge count, the hybrid
	// switch's "unexplored" complement.
	visEdges [64]int64
}

// RunBatch traverses from up to 64 roots at once and returns the batch
// result. Rank clocks are reset, so TimeNs is the batch's virtual
// duration — directly comparable against the sum of len(roots)
// single-root runs.
func (r *Runner) RunBatch(roots []int64) BatchResult {
	if len(r.states) == 0 || r.states[0] == nil {
		panic("msbfs: RunBatch before Setup")
	}
	if len(roots) == 0 || len(roots) > 64 {
		panic(fmt.Sprintf("msbfs: batch of %d roots outside [1, 64]", len(roots)))
	}
	r.roots = append(r.roots[:0], roots...)
	r.parents = nil
	// A planned crash reruns the batch from its roots (on a same-node
	// spare when one is parked); a transport fault that exhausts its
	// retry budget (or a programming bug) is terminal.
	r.Run(func(p *mpi.Proc) { r.states[r.Members.Pos(p.Rank())].runBatch(p, roots) }, r.regroup)
	return r.assemble(roots)
}

// runBatch executes one batch on this rank.
func (ls *laneState) runBatch(p *mpi.Proc, roots []int64) {
	r := ls.r
	st := ls.initBatch(p, roots)
	for st.active != 0 {
		ls.Levels++
		levelStart := p.Clock()
		tdMask := st.active &^ st.bu
		buMask := st.active & st.bu
		var nfL, mfL [64]int64

		// Both sweeps write the next frontier into the owned out-plane
		// segment; clear it once per level (a streaming memset, charged
		// to the level's dominant computation phase).
		buLevel := buMask != 0
		compPh, commPh := trace.TDComp, trace.TDComm
		if buLevel {
			compPh, commPh = trace.BUComp, trace.BUComm
		}
		ls.Compute(p, compPh, ls.team.Parallel(machine.PhaseLoad{SeqBytes: ls.clearOwnedOut() * 8, SeqLoc: r.OutLoc}))
		if tdMask != 0 {
			ls.topDownSweep(p, tdMask, &nfL, &mfL)
			ls.Breakdown.TDLevels++
		}
		if buMask != 0 {
			ls.bottomUpSweep(p, buMask, &nfL, &mfL)
			ls.Breakdown.BULevels++
		}
		ls.StallBarrier(p, commPh)

		// This rank's visited totals, before the allreduces overwrite them.
		for l := range nfL {
			ls.visitedCount[l] += nfL[l]
			ls.visitedEdges[l] += mfL[l]
		}
		// Frontier accounting: two 64-lane vector allreduces replace the
		// 2·len(roots) scalar allreduces sequential runs pay per level.
		t0, x0 := p.Clock(), p.XportNs()
		r.NC.World.AllreduceSumVec64(p, &nfL)
		r.NC.World.AllreduceSumVec64(p, &mfL)
		ls.ChargeComm(p, commPh, t0, x0)

		// Per-lane termination: finished lanes drop out of every
		// subsequent sweep (their plane bits stay zero — an empty
		// frontier writes nothing).
		var levNF, levMF int64
		for m := st.active; m != 0; m &= m - 1 {
			l := bits.TrailingZeros64(m)
			st.nf[l], st.mf[l] = nfL[l], mfL[l]
			st.visEdges[l] += mfL[l]
			levNF += nfL[l]
			levMF += mfL[l]
			if nfL[l] == 0 {
				st.active &^= 1 << uint(l)
				ls.laneLevels[l] = ls.Levels
			}
		}
		ls.EndLevel(p, levelStart, buLevel, levNF, levMF, r.Params.NumVertices()*int64(len(roots)))
		if st.active == 0 {
			break
		}

		// Per-lane mode decisions, Beamer-style with bfs's exact
		// thresholds — each lane follows the schedule its own frontier
		// curve dictates, so a lane's level structure is independent of
		// its batch-mates.
		if r.Opts.Mode == bfs.ModeHybrid {
			for m := st.active; m != 0; m &= m - 1 {
				l := bits.TrailingZeros64(m)
				bit := uint64(1) << uint(l)
				if st.bu&bit == 0 {
					if r.GoBottomUp(st.nf[l], st.prevNf[l], st.mf[l], st.visEdges[l], r.Opts.Alpha) {
						st.bu |= bit
					}
				} else if r.GoTopDown(st.nf[l]) {
					st.bu &^= bit
				}
			}
		}
		st.prevNf = st.nf

		// Level boundary: publish the next frontier. Bottom-up lanes
		// need the whole plane (and its summary) everywhere — one
		// allgather round shared by every lane in the batch. A boundary
		// where every active lane runs top-down next is allgather-free:
		// top-down reads only the owned plane segment.
		ls.publishFrontier(p, st.active&st.bu != 0)
	}
}

// initBatch resets per-batch state, seeds the root lanes and performs
// the initial allreduce, mode setup and frontier publication.
func (ls *laneState) initBatch(p *mpi.Proc, roots []int64) *batchState {
	r := ls.r
	ls.reset(len(roots))
	ls.Reset(p)

	// Seed the owned roots into the out-plane (cleared owned segment
	// first, as at every level).
	t0 := p.Clock()
	wcnt := ls.clearOwnedOut()
	var nfL, mfL [64]int64
	var owned int64
	for l, root := range roots {
		if r.Part.Owner(root) == ls.pos {
			owned++
			ls.settle(root-ls.csr.Lo, 1<<uint(l), 0, &nfL, &mfL) // at depth 0, top-down
		}
	}
	p.Compute(ls.team.Parallel(machine.PhaseLoad{
		Random:   []machine.Access{{Count: owned, StructBytes: wcnt * 8, Loc: r.OutLoc}},
		SeqBytes: wcnt * 8,
		SeqLoc:   r.OutLoc,
	}))
	ls.Charge(trace.Switch, t0, p.Clock())

	ls.visitedCount, ls.visitedEdges = nfL, mfL
	t0, x0 := p.Clock(), p.XportNs()
	r.NC.World.AllreduceSumVec64(p, &nfL)
	r.NC.World.AllreduceSumVec64(p, &mfL)
	ls.ChargeComm(p, trace.TDComm, t0, x0)

	st := &batchState{active: ls.all}
	if r.Opts.Mode == bfs.ModeBottomUp {
		st.bu = ls.all
	}
	for l := range roots {
		st.nf[l], st.mf[l] = nfL[l], mfL[l]
		st.visEdges[l] = mfL[l]
	}
	st.prevNf = st.nf
	ls.publishFrontier(p, st.bu != 0)
	return st
}

// reset clears per-batch state for a batch of nl lanes: the visited
// words, not the depth bits, which count only under them. Nor the
// planes: the owned out-plane segment is cleared every level, top-down
// reads only the owned in-plane segment (fully overwritten by
// publishFrontier), and bottom-up levels are always preceded by a full
// plane+summary allgather.
func (ls *laneState) reset(nl int) {
	ls.all = ^uint64(0) >> uint(64-nl)
	for i := range ls.rec {
		ls.rec[i].vis = 0
	}
	ls.laneLevels, ls.rounds = [64]int{}, 0
}

// clearOwnedOut zeroes the owned out-plane segment and returns its word
// count.
func (ls *laneState) clearOwnedOut() int64 {
	wlo, wcnt := ls.r.planeLayout.Displs[ls.pos], ls.r.planeLayout.Counts[ls.pos]
	clear(ls.outPlane.Words()[wlo : wlo+wcnt])
	return wcnt
}

// claim visits owned vertex v for every lane of w not yet holding it,
// top-down. The caller sequences claims canonically (ascending owned
// vertex order for local claims, sender-position order for remote
// ones), which makes each lane's winning parent independent of what the
// other lanes do — and derivable afterwards (parents.go).
func (ls *laneState) claim(v int64, w uint64, nfL, mfL *[64]int64) {
	i := v - ls.csr.Lo
	if nw := w &^ ls.rec[i].vis; nw != 0 {
		ls.settle(i, nw, 0, nfL, mfL)
	}
}

// laneRec is an owned vertex's visit record: its visited lane word, and
// per visited lane the depth mod 4 as two bit-planes and whether a
// bottom-up sweep settled it. Bits outside vis are stale.
type laneRec struct{ vis, lo, hi, bu uint64 }

// settle marks the lanes of got visited at owned vertex Lo+i at depth
// Levels, bottom-up where bu is all ones: masked word writes whatever
// the lane count, then one degree load and one counter bump per lane.
func (ls *laneState) settle(i int64, got, bu uint64, nfL, mfL *[64]int64) {
	v := ls.csr.Lo + i
	k := uint64(ls.Levels)
	d := &ls.rec[i]
	d.vis |= got
	d.lo = d.lo&^got | got&-(k&1)
	d.hi = d.hi&^got | got&-(k>>1&1)
	d.bu = d.bu&^got | got&bu
	ls.outPlane.Or(v, got)
	deg := ls.csr.Degree(v)
	for ; got != 0; got &= got - 1 {
		l := bits.TrailingZeros64(got)
		nfL[l]++
		mfL[l] += deg
	}
}
