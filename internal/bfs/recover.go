package bfs

import (
	"fmt"

	"numabfs/internal/collective"
	"numabfs/internal/obs"
)

// This file is the degraded-mode completion layer: what happens after a
// rank dies permanently (fault.Crash with Permanent set) and the job
// must finish without it. Two surgeries, selected by Options.Recovery
// and performed between TryRun attempts when no rank goroutine is live:
//
//   - shrinkAfter (RecoverShrink): the dead rank's partition position is
//     removed. A contiguous survivor re-owns its vertex range — the
//     predecessor absorbs, or the successor when position 0 dies — by
//     merging adjacency (MergeCSR; the re-fetch is priced through the
//     node-scratch / kernel-1 path) and the recovery-target checkpoint
//     generation. Layouts, groups and every state's layout-derived
//     scratch are rebuilt over the survivors and the world shrinks to a
//     new epoch.
//   - promoteSpare (RecoverSpare): a parked same-node hot spare
//     (Options.SpareRanks) takes over the dead rank's exact slot. The
//     partition map and all layouts stay; only the member list and the
//     groups re-bind. Falls back to shrinkAfter when the node's spares
//     are exhausted.
//
// Both rely on the checkpoint-survival story: level-boundary snapshots
// live in node-local scratch that outlives the process (the standard
// diskless-checkpointing arrangement), so a same-node spare adopts them
// at shared-memory bandwidth and a remote absorber pulls them over one
// NIC stream. The modelled transfer cost is parked on the member's
// ledger (ParkReown) and charged to the Reown phase by the restore path.

// ckptAt returns the generation saved at `level`, or nil.
func (rs *rankState) ckptAt(level int) *checkpoint {
	if rs.ckptCur != nil && rs.ckptCur.level == level {
		return rs.ckptCur
	}
	if rs.ckptPrev != nil && rs.ckptPrev.level == level {
		return rs.ckptPrev
	}
	return nil
}

// shrinkAfter removes the permanently dead rank from the job: the
// partition loses its position, a contiguous survivor absorbs its
// vertex range (adjacency and recovery-target checkpoint state), and
// world membership, groups and layouts are rebuilt over the survivors.
// target is the recovery generation (recoveryTarget, computed before
// the surgery); target < 0 means the iteration reruns from the root and
// only the adjacency moves. Call between runs only.
func (r *Runner) shrinkAfter(deadRank int, floor float64, target int) {
	if len(r.members) < 2 {
		panic(fmt.Sprintf("bfs: cannot shrink away rank %d, the last member", deadRank))
	}
	deadPos := r.posOf[deadRank]
	deadNode := r.W.Proc(deadRank).Node()
	ds := r.states[deadPos]

	// The dead node's leader before the surgery, for the shared-bitmap
	// snapshot handoff below.
	oldLeader := -1
	for _, m := range r.members {
		if r.W.Proc(m).Node() == deadNode {
			oldLeader = m
			break
		}
	}

	// Re-own the adjacency: the dead range's CSR is concatenated onto
	// the absorber's.
	absPos, merged, lost := r.RemoveRank(deadPos)
	r.members = append(r.members[:deadPos], r.members[deadPos+1:]...)
	r.states = append(r.states[:deadPos], r.states[deadPos+1:]...)
	r.posOf[deadRank] = -1
	for pos, rank := range r.members {
		r.posOf[rank] = pos
	}
	for pos, rs := range r.states {
		rs.pos = pos
	}

	as := r.states[absPos]
	absRank := r.members[absPos]
	reownBytes := lost.BytesApprox()
	as.csr = merged
	as.parent = make([]int64, as.csr.NumLocal())

	if target >= 0 {
		dck := ds.ckptAt(target)
		ack := as.ckptAt(target)
		if dck == nil || ack == nil {
			panic(fmt.Sprintf("bfs: shrink after rank %d lacks generation %d", deadRank, target))
		}
		// Merge the dead range's recovery state in position order. The
		// in_queue/summary snapshots are full (replicated) bitmaps, so the
		// absorber's own snapshot already covers the dead range below the
		// sharing levels; nothing to merge there.
		if deadPos == 0 {
			merged := make([]int64, 0, len(dck.parent)+len(ack.parent))
			ack.parent = append(append(merged, dck.parent...), ack.parent...)
		} else {
			ack.parent = append(ack.parent, dck.parent...)
		}
		ack.queue = append(ack.queue, dck.queue...)
		ack.visited += dck.visited
		ack.visitedEdges += dck.visitedEdges
		reownBytes += dck.bytes()

		// At the sharing levels only node leaders snapshot the shared
		// bitmaps. If the dead rank led its node, the node's new leader
		// inherits the node-scratch snapshot (a node losing its last rank
		// needs no handoff — every node's snapshot holds the same full
		// bitmap).
		if oldLeader == deadRank {
			var nl *rankState
			for _, rank := range r.members {
				if r.W.Proc(rank).Node() == deadNode {
					nl = r.states[r.posOf[rank]]
					break
				}
			}
			if nl != nil {
				nlck := nl.ckptAt(target)
				if nlck != nil {
					var handoff int64
					if len(dck.inq) > 0 && len(nlck.inq) == 0 {
						nlck.inq = append(nlck.inq[:0], dck.inq...)
						handoff += int64(len(dck.inq)) * 8
					}
					if len(dck.sum) > 0 && len(nlck.sum) == 0 {
						nlck.sum = append(nlck.sum[:0], dck.sum...)
						handoff += int64(len(dck.sum)) * 8
					}
					nl.ParkReown(r.ReownCostNs(handoff, deadNode, deadNode))
				}
			}
		}
	}
	as.ParkReown(r.ReownCostNs(reownBytes, deadNode, r.W.Proc(absRank).Node()))

	r.refreshLayouts()
	r.W.Shrink([]int{deadRank})

	r.W.Proc(absRank).Obs().FaultEvent("shrink", floor)
	r.W.Proc(r.members[0]).Obs().Sample(obs.GaugeLiveRanks, floor, float64(len(r.members)))
}

// promoteSpare swaps a parked same-node hot spare into the dead rank's
// partition slot. The state (CSR, checkpoints, bitmaps) stays bound to
// the slot; the spare adopts it out of node scratch at shared-memory
// bandwidth. Reports false — caller falls back to shrinkAfter — when the
// node has no spare left. Call between runs only.
func (r *Runner) promoteSpare(deadRank int, floor float64) bool {
	node := r.W.Proc(deadRank).Node()
	if len(r.nodeSpares[node]) == 0 {
		return false
	}
	spare := r.nodeSpares[node][0]
	r.nodeSpares[node] = r.nodeSpares[node][1:]
	deadPos := r.posOf[deadRank]
	r.W.Promote(spare, deadRank)
	r.members[deadPos] = spare
	r.posOf[deadRank] = -1
	r.posOf[spare] = deadPos
	r.NC = collective.NewNodeCommRanks(r.W, r.members)

	// The spare re-binds the slot's state wholesale; the partition map
	// and every layout are untouched, so no other state changes.
	rs := r.states[deadPos]
	bytes := rs.csr.BytesApprox()
	if rs.ckptCur != nil {
		bytes += rs.ckptCur.bytes()
	}
	if rs.ckptPrev != nil {
		bytes += rs.ckptPrev.bytes()
	}
	rs.ParkReown(r.ReownCostNs(bytes, node, node))

	r.W.Proc(spare).Obs().FaultEvent("promote", floor)
	r.W.Proc(r.members[0]).Obs().Sample(obs.GaugeLiveRanks, floor, float64(len(r.members)))
	return true
}

// refreshLayouts rebuilds the groups, the allgather layouts and every
// state's layout-derived scratch after a shrink changed the partition.
func (r *Runner) refreshLayouts() {
	active := len(r.members)
	r.NC = collective.NewNodeCommRanks(r.W, r.members)
	r.wordLayout = collective.SegLayout(r.Part.WordOffsets())
	r.sumLayout = collective.EvenLayout(r.sumBytes/8, active)
	for _, rs := range r.states {
		rs.send = make([][]int64, active)
		if r.Chunks() > 0 {
			rs.ovBitLo, rs.ovBitHi = rs.shareBits()
		}
	}
}
