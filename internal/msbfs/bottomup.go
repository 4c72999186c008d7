package msbfs

import (
	"numabfs/internal/machine"
	"numabfs/internal/mpi"
	"numabfs/internal/trace"
)

// bottomUpSweep runs one bottom-up step for the lanes of buMask: every
// owned vertex still unvisited in at least one of those lanes scans its
// neighbours once, resolving ALL its pending lanes in that single pass —
// lane l adopts the first neighbour (in adjacency order) present in lane
// l's frontier, the reference code's rule applied independently per
// lane. The lane summary's per-lane OR keeps the short-circuit exact:
// a granule is skipped for exactly the pending lanes it is empty in,
// never because another lane is dense there.
func (ls *laneState) bottomUpSweep(p *mpi.Proc, buMask uint64, nfL, mfL *[64]int64) {
	res := ls.team.For(ls.csr.NumLocal(), ls.r.Opts.Chunk, func(lo, hi int64, load *machine.PhaseLoad) {
		ls.bottomUpChunk(lo, hi, buMask, nfL, mfL, load)
	})
	ls.Compute(p, trace.BUComp, res.Ns)
}

// bottomUpChunk is the sweep over owned vertices [lo, hi). A hit only
// collects its lanes; the row's resolved lanes are settled once, after
// the row.
func (ls *laneState) bottomUpChunk(lo, hi int64, buMask uint64, nfL, mfL *[64]int64, load *machine.PhaseLoad) {
	r := ls.r
	var edges, sumChecks, planeChecks, found int64
	for i := lo; i < hi; i++ {
		pend := buMask &^ ls.rec[i].vis
		if pend == 0 {
			continue
		}
		var got uint64
		for _, w := range ls.csr.Neighbors(ls.csr.Lo + i) {
			u := int64(w)
			edges++
			sumChecks++
			if ls.inSum.CoveredZero(u, pend) {
				continue // the summary proved every pending lane empty here
			}
			planeChecks++
			hit := ls.inPlane.Word(u) & pend
			if hit == 0 {
				continue
			}
			got |= hit
			found++
			pend &^= hit
			if pend == 0 {
				break
			}
		}
		if got != 0 {
			ls.settle(i, got, ^uint64(0), nfL, mfL)
		}
	}
	load.Random = append(load.Random,
		machine.Access{Count: sumChecks, StructBytes: r.sumBytes, Loc: r.SumLoc},
		machine.Access{Count: planeChecks, StructBytes: r.planeBytes, Loc: r.InqLoc},
		machine.Access{Count: found, StructBytes: ls.visBytes(), Loc: r.pl.PrivateLoc},
	)
	// Visited-word scan + adjacency stream.
	load.SeqBytes = (hi-lo)*8 + edges*8
	load.SeqLoc = r.pl.GraphLoc
	load.CPUOps = edges*2 + (hi - lo)
}
