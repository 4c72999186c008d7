package msbfs

import "numabfs/internal/chassis"

// LaneResult is one lane's (one root's) view of a batch.
type LaneResult struct {
	Root           int64
	Levels         int
	TraversedEdges int64 // undirected edges in the lane's component
	Visited        int64 // vertices the lane reached
	// TEPS is the lane's effective rate against the WHOLE batch's wall
	// time — the honest per-query number a service reports: the lane
	// paid the batch's duration to get its answer.
	TEPS float64
}

// BatchResult summarizes one multi-source batch.
type BatchResult struct {
	Roots []int64
	// Summary is the batch as a whole: TimeNs its virtual wall time,
	// Levels the longest-running lane's level count, TraversedEdges /
	// Visited / TEPS the aggregate over all lanes (the batch traversed
	// this many (lane, edge) pairs in TimeNs), LevelStats the batch
	// frontier curve with NF/MF summed across lanes.
	chassis.Summary
	// AllgatherRounds is the number of plane+summary allgather
	// boundaries the batch performed — the figure of merit: sequential
	// runs pay their rounds per root, the batch pays each round once
	// for all 64 lanes.
	AllgatherRounds int64
	Lanes           []LaneResult
}

// assemble gathers the per-rank lane states into a BatchResult.
func (r *Runner) assemble(roots []int64) BatchResult {
	res := BatchResult{
		Roots: append([]int64(nil), roots...),
		Lanes: make([]LaneResult, len(roots)),
	}
	for _, ls := range r.states {
		for l := range roots {
			res.Lanes[l].TraversedEdges += ls.visitedEdges[l]
			res.Lanes[l].Visited += ls.visitedCount[l]
		}
	}
	for l, root := range roots {
		lr := &res.Lanes[l]
		lr.Root = root
		lr.TraversedEdges /= 2 // both endpoints counted
		lr.Levels = r.states[0].laneLevels[l]
		res.TraversedEdges += lr.TraversedEdges
		res.Visited += lr.Visited
	}
	r.Finish(&res.Summary, &r.states[0].Ledger)
	if res.TimeNs > 0 {
		for l := range res.Lanes {
			res.Lanes[l].TEPS = float64(res.Lanes[l].TraversedEdges) / (res.TimeNs / 1e9)
		}
	}
	res.AllgatherRounds = r.states[0].rounds
	return res
}
