package bfs

import (
	"numabfs/internal/mpi"
	"numabfs/internal/trace"
)

// runBFS executes one BFS iteration on this rank. All ranks execute the
// same level sequence in lockstep; every control decision (mode switch,
// termination) is derived from allreduced values, so the collective call
// pattern is identical across ranks by construction.
func (rs *rankState) runBFS(p *mpi.Proc, root int64) {
	rs.levelLoop(p, rs.initRoot(p, root))
}

// loopState is the lockstep control state of the level loop — the
// allreduce-derived values every rank holds identical copies of.
type loopState struct {
	bottomUp bool
	// nf and mf are the allreduced size and edge sum of the current
	// frontier; visitedEdgesGlobal and prevNf drive the hybrid switch.
	nf, mf             int64
	visitedEdgesGlobal int64
	prevNf             int64
}

// initRoot resets per-root state, seeds the root frontier and performs
// the initial allreduce and mode setup, returning the loop state the
// level loop starts from.
func (rs *rankState) initRoot(p *mpi.Proc, root int64) *loopState {
	r := rs.r
	rs.reset()
	rs.Reset(p) // a rerun from the root resumes at the detection floor

	lo := rs.csr.Lo
	nfLocal, mfLocal := int64(0), int64(0)
	if r.Part.Owner(root) == rs.pos {
		rs.parent[root-lo] = root
		rs.next = append(rs.next, root)
		rs.Visited = 1
		rs.VisitedEdges = rs.csr.Degree(root)
		nfLocal, mfLocal = 1, rs.VisitedEdges
	}
	// The initial frontier's size/edges (known to all via allreduce; the
	// reference code knows them implicitly, we pay two scalar messages).
	t0, x0 := p.Clock(), p.XportNs()
	nf := r.NC.World.AllreduceSumInt64(p, nfLocal)
	mf := r.NC.World.AllreduceSumInt64(p, mfLocal)
	rs.ChargeComm(p, trace.TDComm, t0, x0)

	st := &loopState{
		bottomUp:           r.Opts.Mode == ModeBottomUp,
		nf:                 nf,
		mf:                 mf,
		visitedEdgesGlobal: mf,
		prevNf:             nf,
	}
	if st.bottomUp {
		// Pure bottom-up starts by converting the root frontier.
		rs.switchToBottomUp(p)
	} else {
		rs.promoteNext()
	}
	return st
}

// levelLoop runs the lockstep level loop from st until the frontier
// empties.
func (rs *rankState) levelLoop(p *mpi.Proc, st *loopState) {
	r := rs.r
	for st.nf > 0 {
		rs.Levels++
		levelStart := p.Clock()
		var dnf, dmf int64
		if st.bottomUp {
			dnf, dmf = rs.bottomUpLevel(p)
			rs.Breakdown.BULevels++
		} else {
			dnf, dmf = rs.topDownLevel(p)
			rs.Breakdown.TDLevels++
		}
		st.nf, st.mf = dnf, dmf
		st.visitedEdgesGlobal += dmf
		rs.EndLevel(p, levelStart, st.bottomUp, st.nf, st.mf, r.Params.NumVertices())
		if st.nf == 0 {
			break
		}
		switch {
		case r.Opts.Mode != ModeHybrid:
			// Pure bottom-up: the new frontier is already in in_queue.
			if !st.bottomUp {
				rs.promoteNext()
			}
		case !st.bottomUp:
			if r.GoBottomUp(st.nf, st.prevNf, st.mf, st.visitedEdgesGlobal, r.Opts.Alpha) {
				rs.switchToBottomUp(p)
				st.bottomUp = true
			} else {
				rs.promoteNext()
			}
		case r.GoTopDown(st.nf):
			rs.switchToTopDown(p)
			st.bottomUp = false
		}
		st.prevNf = st.nf
	}
}

// reset clears per-root state.
// Bitmaps need no clearing: in_queue and the summary are fully
// overwritten by the first allgather, and the owned out_queue segment is
// cleared at the start of every bottom-up level.
func (rs *rankState) reset() {
	for i := range rs.parent {
		rs.parent[i] = -1
	}
	rs.queue = rs.queue[:0]
	rs.next = rs.next[:0]
}

// promoteNext makes the freshly discovered frontier current (top-down).
func (rs *rankState) promoteNext() {
	rs.queue, rs.next = rs.next, rs.queue[:0]
}
