package bfs

import (
	"fmt"

	"numabfs/internal/machine"
	"numabfs/internal/mpi"
	"numabfs/internal/obs"
	"numabfs/internal/trace"
)

// This file implements level-boundary checkpointing for crash recovery
// (internal/fault). At the bottom of every level of the lockstep loop —
// after the allreduce that published the level's frontier and after any
// mode switch — each rank snapshots the state a resume needs, keeping
// the two newest generations. When a rank crash aborts the iteration,
// RunRoot restores a generation every survivor is guaranteed to hold
// and re-enters the level loop (before the first save, the chassis
// reruns the iteration from the root instead), charging the snapshot
// copies and the rollback through the virtual clock like any other
// modelled work.
//
// Two generations are the minimum that survives the abort race: ranks
// are released from a dying collective at arbitrary host moments, so a
// rank may abort after the crashed rank saved generation L but before
// saving its own. The crashed rank saving L proves every rank completed
// the level-L allreduce, which each rank only reaches after saving L-1 —
// so generation L-1 exists everywhere and is the recovery target. The
// target is derived from the crashed rank alone (its history at the
// deterministically-timed crash is deterministic), never from whichever
// survivor the host scheduler happened to release first.

// loopState is the lockstep control state of the level loop — the
// allreduce-derived values every rank holds identical copies of. A
// checkpoint embeds it so a restored rank re-enters the loop mid-flight.
type loopState struct {
	bottomUp bool
	// nf and mf are the allreduced size and edge sum of the current
	// frontier; visitedEdgesGlobal and prevNf drive the hybrid switch.
	nf, mf             int64
	visitedEdgesGlobal int64
	prevNf             int64
}

// checkpoint is one rank's saved state at a level boundary.
type checkpoint struct {
	level int       // BFS level completed when this was saved
	clock float64   // rank's virtual clock right after the save
	st    loopState // lockstep control state

	bd           trace.Breakdown
	levelStats   []trace.LevelStat
	parent       []int64
	queue        []int64 // top-down frontier (empty in bottom-up mode)
	visited      int64   // the ledger's visit counters
	visitedEdges int64

	// inq/sum snapshot the frontier bitmaps, only in bottom-up mode and
	// only on the rank that owns the copy (every rank below the sharing
	// optimization level, the node leader above it). Top-down state
	// needs neither: the queue and parents fully determine a resume.
	inq []uint64
	sum []uint64

	// stable marks a generation every rank is known to hold — set when
	// it has been a restore target. A crash before the next save then
	// safely restores it again instead of reaching one level further
	// back than anyone saved.
	stable bool
}

// bytes is the snapshot's payload size (what the save models copying).
func (ck *checkpoint) bytes() int64 {
	b := int64(len(ck.parent))*8 + int64(len(ck.queue))*8 +
		int64(len(ck.inq))*8 + int64(len(ck.sum))*8 +
		int64(len(ck.levelStats))*48
	return b
}

// newCkpt pops a recycled generation from the rank's pool (or allocates
// the pool's very first ones): the snapshot slices keep their capacity,
// so steady-state checkpointing — every level of every root — allocates
// nothing once the pool is warm.
func (rs *rankState) newCkpt() *checkpoint {
	if n := len(rs.ckptPool); n > 0 {
		ck := rs.ckptPool[n-1]
		rs.ckptPool = rs.ckptPool[:n-1]
		return ck
	}
	return &checkpoint{}
}

// recycleCkpt returns a dropped generation to the pool. nil is allowed.
func (rs *rankState) recycleCkpt(ck *checkpoint) {
	if ck != nil {
		rs.ckptPool = append(rs.ckptPool, ck)
	}
}

// saveCheckpoint snapshots the rank's state at the current level
// boundary and charges the copy cost to the Ckpt phase. A no-op unless
// the active fault plan schedules a crash (checkpointing has a modelled
// cost; paying it without a threat would perturb every result).
//
// The generation swap happens before the cost is charged: if the crash
// truncates the save itself, the crashed rank's newest generation
// points at the level whose save it attempted, and the recovery target
// (one level older) stays a generation everyone completed.
func (rs *rankState) saveCheckpoint(p *mpi.Proc, st *loopState) {
	r := rs.r
	if !r.CrashPlanned() {
		return
	}
	t0 := p.Clock()
	ck := rs.newCkpt()
	ck.level = rs.Levels
	ck.st = *st
	ck.bd = rs.Breakdown
	ck.levelStats = append(ck.levelStats[:0], rs.LevelStats...)
	ck.parent = append(ck.parent[:0], rs.parent...)
	ck.queue = append(ck.queue[:0], rs.queue...)
	ck.visited = rs.Visited
	ck.visitedEdges = rs.VisitedEdges
	ck.inq, ck.sum = ck.inq[:0], ck.sum[:0]
	ck.stable = false
	if st.bottomUp {
		if !r.InqShared || r.NC.IsLeader(p) {
			ck.inq = append(ck.inq, rs.inQ.Words()...)
		}
		if !r.OutShared || r.NC.IsLeader(p) {
			ck.sum = append(ck.sum, rs.inSum.Bits().Words()...)
		}
	}
	rs.recycleCkpt(rs.ckptPrev)
	rs.ckptPrev, rs.ckptCur = rs.ckptCur, ck

	// Read the live state, write the snapshot: 2x the payload through
	// the rank's memory system.
	p.Compute(rs.team.Parallel(machine.PhaseLoad{
		SeqBytes: ck.bytes() * 2,
		SeqLoc:   r.pl.PrivateLoc,
	}))
	rs.Charge(trace.Ckpt, t0, p.Clock())
	rs.Rec.Sample(obs.GaugeCkptBytes, t0, float64(ck.bytes()))
	ck.clock = p.Clock()
	ck.bd = rs.Breakdown
}

// recoveryTarget returns the level every rank can restore after the
// member at partition position `pos` crashed, or -1 when the iteration
// must rerun from the root. Derived from the crashed rank's generations
// only (see the file comment).
func (r *Runner) recoveryTarget(pos int) int {
	ck := r.states[pos].ckptCur
	switch {
	case ck == nil:
		return -1
	case ck.stable:
		return ck.level
	default:
		return ck.level - 1
	}
}

// restoreCheckpoint rolls the rank back to the generation at `target`
// and returns the loop state to resume with. The rank's clock resumes no
// earlier than floor (crash time plus the modelled detection timeout):
// rolling back state never rolls back time. The rollback copy and the
// re-synchronizing barrier are charged to the Recovery phase.
func (rs *rankState) restoreCheckpoint(p *mpi.Proc, target int, floor float64) *loopState {
	r := rs.r
	rs.Rec = p.Obs()
	var ck *checkpoint
	switch {
	case rs.ckptCur != nil && rs.ckptCur.level == target:
		ck = rs.ckptCur
	case rs.ckptPrev != nil && rs.ckptPrev.level == target:
		ck = rs.ckptPrev
	default:
		panic(fmt.Sprintf("bfs: rank %d has no checkpoint for level %d", p.Rank(), target))
	}
	ck.stable = true
	if ck == rs.ckptCur {
		rs.recycleCkpt(rs.ckptPrev)
	} else {
		rs.recycleCkpt(rs.ckptCur)
	}
	rs.ckptCur, rs.ckptPrev = ck, nil

	start := floor
	if ck.clock > start {
		start = ck.clock
	}
	p.RestoreClock(start)

	// Roll the algorithm state back to the snapshot.
	rs.Breakdown = ck.bd
	rs.Levels = ck.level
	rs.LevelStats = append(rs.LevelStats[:0], ck.levelStats...)
	copy(rs.parent, ck.parent)
	rs.queue = append(rs.queue[:0], ck.queue...)
	rs.next = rs.next[:0]
	rs.Visited = ck.visited
	rs.VisitedEdges = ck.visitedEdges
	if len(ck.inq) > 0 {
		copy(rs.inQ.Words(), ck.inq)
	}
	if len(ck.sum) > 0 {
		copy(rs.inSum.Bits().Words(), ck.sum)
	}

	// Survivor repartitioning: the re-own transfer (adjacency re-fetch
	// through the kernel-1 cache, checkpoint handoff from the dead rank's
	// node scratch) runs before the rollback copy.
	rs.PayReown(p)

	// Charge the rollback copy, then barrier: ranks restoring shared
	// bitmaps (the node leaders) must finish writing before anyone
	// reads, and the loop resumes from synchronized clocks exactly as
	// it left them.
	reStart := p.Clock()
	p.Compute(rs.team.Parallel(machine.PhaseLoad{
		SeqBytes: ck.bytes() * 2,
		SeqLoc:   r.pl.PrivateLoc,
	}))
	p.Barrier()
	rs.Charge(trace.Recovery, reStart, p.Clock())
	rs.Rec.FaultEvent("recover", p.Clock())

	st := ck.st
	return &st
}
