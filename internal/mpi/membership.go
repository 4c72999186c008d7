package mpi

import "fmt"

// This file is the world's membership layer: which ranks Run/TryRun
// schedules, and the epoch numbering of world views. A rank is live by
// default; Park removes hot spares from the schedule before the first
// run, and Promote swaps a parked spare in for a permanently dead rank.
// A dead rank with no spare to replace it stays live and reruns in
// place. Every membership change rebuilds the world barrier and the
// per-node barriers over the live ranks, so barrier pricing tracks the
// epoch. Mutators must only be called when no rank is running (between
// Run/TryRun attempts).

// Epoch returns the world-view number: 0 until the first Promote,
// incremented by each.
func (w *World) Epoch() int { return w.epoch }

// Park removes ranks from the schedule without declaring them dead —
// hot spares waiting for a Promote. Call before the first Run; parking
// does not advance the epoch (the first run's view is still epoch 0).
func (w *World) Park(ranks []int) {
	for _, r := range ranks {
		if !w.live[r] {
			panic(fmt.Sprintf("mpi: Park(%d): rank already parked or dead", r))
		}
		w.live[r] = false
	}
	w.rebuildMembership()
}

// Promote swaps the parked spare in for the dead rank and advances the
// epoch. The spare joins the schedule, the dead rank leaves it, and
// barriers are rebuilt — with a same-node spare the populations (and so
// every modelled barrier cost) are unchanged.
func (w *World) Promote(spare, dead int) {
	if w.live[spare] {
		panic(fmt.Sprintf("mpi: Promote(%d, %d): spare is not parked", spare, dead))
	}
	if !w.live[dead] {
		panic(fmt.Sprintf("mpi: Promote(%d, %d): dead rank already removed", spare, dead))
	}
	w.live[spare] = true
	w.live[dead] = false
	w.epoch++
	w.rebuildMembership()
}

// rebuildMembership recomputes the live counts and rebuilds the world
// barrier and the node barriers over the live ranks.
func (w *World) rebuildMembership() {
	w.globalBarrier = &barrier{}
	for n := range w.liveOnNode {
		w.liveOnNode[n] = 0
		w.nodeBarriers[n] = &barrier{}
	}
	for r, ok := range w.live {
		if ok {
			p := w.procs[r]
			w.liveOnNode[p.node]++
			w.globalBarrier.members = append(w.globalBarrier.members, p)
			w.nodeBarriers[p.node].members = append(w.nodeBarriers[p.node].members, p)
		}
	}
	w.liveNodes, w.maxLivePPN = 0, 0
	for _, c := range w.liveOnNode {
		if c > 0 {
			w.liveNodes++
		}
		if c > w.maxLivePPN {
			w.maxLivePPN = c
		}
	}
}
