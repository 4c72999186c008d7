package bfs2d

import (
	"math/bits"

	"numabfs/internal/bitmap"
	"numabfs/internal/chassis"
	"numabfs/internal/collective"
	"numabfs/internal/machine"
	"numabfs/internal/mpi"
	"numabfs/internal/omp"
	"numabfs/internal/trace"
)

// RootResult summarizes one 2-D BFS iteration: the 1-D engine's type, so
// the two engines diff cleanly (obsdiff, the crossover experiment).
type RootResult = chassis.Result

// RunRoot runs one 2-D BFS from root. Rank clocks are reset, so TimeNs
// is the iteration's virtual duration. Under an active crash plan the
// chassis reruns the iteration from the root with clocks floored at
// crash-detection time; a permanent death first promotes a spare into
// the dead rank's grid cell when one is left.
func (r *Runner) RunRoot(root int64) RootResult {
	if len(r.states) == 0 || r.states[r.cellRank[0]] == nil {
		panic("bfs2d: RunRoot before Setup")
	}
	r.Run(func(p *mpi.Proc) {
		r.states[p.Rank()].run(p, r.grid, root)
	}, func(f *mpi.FaultError, floor float64) {
		if f.Permanent {
			r.promote(f.Rank, floor)
		}
	})
	res := RootResult{Root: root}
	r.Finish(&res.Summary, &r.states[r.cellRank[0]].Ledger)
	return res
}

// run executes the lockstep level loop on this rank. All control
// decisions (mode switch, termination) derive from allreduced values,
// so the collective call pattern is identical across ranks. The ledger
// counts visits where the data already is: the owner each parent it
// sets, every member the stored edges of each column frontier it
// expands (each discovered vertex is expanded exactly once).
func (rs *rankState) run(p *mpi.Proc, all *collective.Group, root int64) {
	r := rs.r
	rs.reset()
	rs.Reset(p)

	lo := rs.ownLo()
	var nfLocal int64
	if r.ownerOf(root) == p.Rank() {
		rs.parent[root-lo] = root
		rs.frontier = append(rs.frontier, root)
		nfLocal = 1
		rs.Visited = 1
	}
	t0, x0 := p.Clock(), p.XportNs()
	nf := all.AllreduceSumInt64(p, nfLocal)
	rs.ChargeComm(p, trace.TDComm, t0, x0)

	col := r.cols[rs.j]
	row := r.rows[rs.i]

	bottomUp := r.Mode == ModeBottomUp
	if bottomUp {
		rs.seedBottomUp(p, root)
	}
	prevNf := nf
	var visitedEdgesGlobal int64

	for nf > 0 {
		rs.Levels++
		levelStart := p.Clock()
		if r.Mode == ModeHybrid && bottomUp && r.GoTopDown(nf) {
			rs.switchToTopDown(p)
			bottomUp = false
		}
		var dnf int64
		if bottomUp {
			mf := rs.buExpand(p, all, col, row)
			rs.backfillMF(mf)
			visitedEdgesGlobal += mf
			dnf = rs.buScanFold(p, all, col)
		} else {
			lists := rs.expand(p, col)
			if r.Mode != ModeTopDown {
				mf := rs.hybridAccount(p, all, lists)
				rs.backfillMF(mf)
				visitedEdgesGlobal += mf
				if r.Mode == ModeHybrid && r.GoBottomUp(nf, prevNf, mf, visitedEdgesGlobal, chassis.DefaultAlpha) {
					rs.switchToBottomUp(p, row)
					bottomUp = true
					dnf = rs.buScanFold(p, all, col)
				}
			}
			if !bottomUp {
				dnf = rs.tdScanFold(p, all, row, lists)
			}
		}
		prevNf, nf = nf, dnf
		if bottomUp {
			rs.Breakdown.BULevels++
		} else {
			rs.Breakdown.TDLevels++
		}
		// MF is backfilled one expand later, where the 2-D layout learns it.
		rs.EndLevel(p, levelStart, bottomUp, nf, 0, r.Params.NumVertices())
	}
}

// expand gathers the frontier of this column's blocks down the
// processor column, returning the per-source-position vertex lists.
func (rs *rankState) expand(p *mpi.Proc, col *collective.Group) [][]int64 {
	t0, x0 := p.Clock(), p.XportNs()
	rs.lists = col.AllgathervInt64(p, rs.frontier, rs.lists, rs.codec)
	rs.ChargeComm(p, trace.TDComm, t0, x0)
	return rs.lists
}

// tdScanFold runs the top-down local scan, the row fold and the
// level-terminating frontier allreduce, returning the new global
// frontier size.
func (rs *rankState) tdScanFold(p *mpi.Proc, all *collective.Group, row *collective.Group, lists [][]int64) int64 {
	r := rs.r
	lo := rs.ownLo()

	// LOCAL: scan the expanded frontier's local adjacency.
	send := rs.sendRow
	for c := range send {
		send[c] = send[c][:0]
	}
	rs.sentStamp++
	var edges, frontierLen, sentPairs int64
	for _, list := range lists {
		frontierLen += int64(len(list))
		for _, u := range list {
			for _, w := range rs.neighbors(u) {
				v := int64(w)
				edges++
				// v's owner sits in this grid row at column j(v).
				jc := int(v / (int64(r.Grid.R) * r.blockSize))
				// Send each candidate once per level: the column
				// aggregates R blocks of edges, so the same child is
				// typically discovered many times locally.
				si := int64(jc)*r.blockSize + v%r.blockSize
				if rs.sent[si] == rs.sentStamp {
					continue
				}
				rs.sent[si] = rs.sentStamp
				sentPairs++
				send[jc] = append(send[jc], v, u)
			}
		}
	}
	load := machine.PhaseLoad{
		Random: []machine.Access{
			{Count: frontierLen, StructBytes: int64(len(rs.col)+len(rs.rowPtr)) * 8, Loc: r.pl.GraphLoc},
			// The dedup stamps are probed once per scanned edge.
			{Count: edges, StructBytes: int64(len(rs.sent)) * 8, Loc: r.pl.PrivateLoc},
		},
		SeqBytes: edges*8 + sentPairs*16,
		SeqLoc:   r.pl.GraphLoc,
		CPUOps:   edges * 3,
	}
	rs.ComputeNominal(p, trace.TDComp, rs.team.ForBalanced(edges, 256, load))
	if r.Mode == ModeTopDown {
		// No hybridAccount counted this frontier's edges; the scan did.
		rs.VisitedEdges += edges
	}

	// FOLD: route candidates along the grid row to their owners.
	rs.StallBarrier(p, trace.TDComm)
	t0, x0 := p.Clock(), p.XportNs()
	rs.foldOutRow = row.AlltoallvInt64Into(p, send, rs.foldOutRow, rs.foldCodec)
	recv := rs.foldOutRow
	rs.ChargeComm(p, trace.TDComm, t0, x0)

	// Resolve visitation at the owners.
	rs.frontier = rs.frontier[:0]
	var nfLocal, pairs int64
	for _, vec := range recv {
		for k := 0; k+1 < len(vec); k += 2 {
			pairs++
			v, u := vec[k], vec[k+1]
			if i := v - lo; rs.parent[i] < 0 {
				rs.parent[i] = u
				rs.frontier = append(rs.frontier, v)
				nfLocal++
			}
		}
	}
	rs.Visited += nfLocal
	proc := machine.PhaseLoad{
		Random: []machine.Access{
			{Count: pairs, StructBytes: r.blockSize * 8, Loc: r.pl.PrivateLoc},
		},
		SeqBytes: pairs * 16,
		SeqLoc:   r.pl.PrivateLoc,
		CPUOps:   pairs * 2,
	}
	rs.ComputeNominal(p, trace.TDComp, rs.team.ForBalanced(pairs, 256, proc))

	t0, x0 = p.Clock(), p.XportNs()
	nf := all.AllreduceSumInt64(p, nfLocal)
	rs.ChargeComm(p, trace.TDComm, t0, x0)
	return nf
}

// hybridAccount folds the freshly expanded frontier into the column
// visited set and allreduces the frontier's stored-edge count — the
// quantities the hybrid switch heuristic runs on. Only called above
// ModeTopDown, so the historical pure top-down cost model is untouched.
func (rs *rankState) hybridAccount(p *mpi.Proc, all *collective.Group, lists [][]int64) int64 {
	r := rs.r
	cLo, _ := r.colRange(rs.j)
	var frontierLen, mfLocal int64
	for _, list := range lists {
		for _, u := range list {
			i := u - cLo
			rs.colVisited.Set(i)
			mfLocal += rs.rowPtr[i+1] - rs.rowPtr[i]
			frontierLen++
		}
	}
	rs.VisitedEdges += mfLocal
	load := machine.PhaseLoad{
		Random: []machine.Access{
			{Count: frontierLen, StructBytes: rs.colVisited.Bytes(), Loc: r.pl.PrivateLoc},
			{Count: frontierLen, StructBytes: int64(len(rs.rowPtr)) * 8, Loc: r.pl.GraphLoc},
		},
		CPUOps: 2 * frontierLen,
	}
	rs.ComputeNominal(p, trace.TDComp, rs.team.ForBalanced(frontierLen, 256, load))

	t0, x0 := p.Clock(), p.XportNs()
	mf := all.AllreduceSumInt64(p, mfLocal)
	rs.ChargeComm(p, trace.TDComm, t0, x0)
	return mf
}

// backfillMF records the current frontier's global edge count on the
// level stat that discovered it (the edge count only becomes known one
// expand later in the 2-D layout).
func (rs *rankState) backfillMF(mf int64) {
	if k := len(rs.LevelStats); k > 0 {
		rs.LevelStats[k-1].MF = mf
	}
}

// seedBottomUp initializes the frontier bitmaps for a pure bottom-up
// run: every rank clears its own block segments, the root's owner sets
// the root's bits. The first buExpand's allgathers then distribute
// them. Charged to Switch like the 1-D engine's mode conversions.
func (rs *rankState) seedBottomUp(p *mpi.Proc, root int64) {
	r := rs.r
	rs.clearOwnSegments()
	if r.ownerOf(root) == p.Rank() {
		off := root - rs.ownLo()
		rs.colFront.Set(int64(rs.i)*r.blockSize + off)
		rs.rowFront.Set(int64(rs.j)*r.blockSize + off)
	}
	load := machine.PhaseLoad{
		SeqBytes: r.blockSize / 4, // both own word segments
		SeqLoc:   r.pl.PrivateLoc,
		CPUOps:   r.blockSize / 32,
	}
	rs.Compute(p, trace.Switch, rs.team.Parallel(load))
}

// switchToBottomUp converts the just-expanded top-down frontier to the
// bottom-up representation: the owned frontier becomes the rank's
// row-frontier segment, the segments are allgathered along the grid
// row, and the summary is rebuilt. Charged to the Switch phase, like
// the 1-D engine's conversion.
func (rs *rankState) switchToBottomUp(p *mpi.Proc, row *collective.Group) {
	r := rs.r
	lo := rs.ownLo()
	base := int64(rs.j) * r.blockSize
	words := rs.rowFront.Words()
	bsw := r.blockSize / 64
	for w := int64(rs.j) * bsw; w < int64(rs.j+1)*bsw; w++ {
		words[w] = 0
	}
	for _, v := range rs.frontier {
		rs.rowFront.Set(base + (v - lo))
	}
	conv := machine.PhaseLoad{
		SeqBytes: r.blockSize/8 + int64(len(rs.frontier))*8,
		SeqLoc:   r.pl.PrivateLoc,
		CPUOps:   r.blockSize/64 + int64(len(rs.frontier)),
	}
	rs.Compute(p, trace.Switch, rs.team.Parallel(conv))

	t0, x0 := p.Clock(), p.XportNs()
	rs.rowAllgather(p, row)
	rs.ChargeComm(p, trace.Switch, t0, x0)
	rs.rebuildSummary(p, trace.Switch)
}

// switchToTopDown extracts the owned frontier list from the column
// frontier bitmap left by the previous bottom-up resolve. Charged to
// the Switch phase.
func (rs *rankState) switchToTopDown(p *mpi.Proc) {
	r := rs.r
	cLo, _ := r.colRange(rs.j)
	base := int64(rs.i) * r.blockSize
	rs.frontier = rs.colFront.AppendSetBits(rs.frontier[:0], base, base+r.blockSize)
	for k := range rs.frontier {
		rs.frontier[k] += cLo // bitmap index is the in-column offset
	}
	load := machine.PhaseLoad{
		SeqBytes: r.blockSize/8 + int64(len(rs.frontier))*8,
		SeqLoc:   r.pl.PrivateLoc,
		CPUOps:   r.blockSize / 64,
	}
	rs.Compute(p, trace.Switch, rs.team.Parallel(load))
}

// buExpand runs a bottom-up level's communication prologue: allgather
// the owned frontier segments along the column, fold them into the
// visited set, allreduce the frontier's edge count, then allgather the
// row frontier and rebuild its summary. Returns the global frontier
// edge count.
func (rs *rankState) buExpand(p *mpi.Proc, all, col, row *collective.Group) int64 {
	r := rs.r

	t0, x0 := p.Clock(), p.XportNs()
	if rs.colCodec != nil {
		col.AllgatherRingCompressed(p, rs.colFront.Words(), r.colLayout, rs.colCodec)
	} else {
		col.Allgather(p, rs.colFront.Words(), r.colLayout)
	}
	rs.ChargeComm(p, trace.BUComm, t0, x0)

	// Fold the column frontier into the visited set and count its
	// stored edges (the hybrid heuristic's mf).
	rs.colVisited.OrFrom(rs.colFront)
	var mfLocal, cnf int64
	rs.colFront.ForEachSet(func(u int64) {
		mfLocal += rs.rowPtr[u+1] - rs.rowPtr[u]
		cnf++
	})
	rs.VisitedEdges += mfLocal
	load := machine.PhaseLoad{
		Random: []machine.Access{
			{Count: cnf, StructBytes: int64(len(rs.rowPtr)) * 8, Loc: r.pl.GraphLoc},
		},
		SeqBytes: 2 * rs.colFront.Bytes(),
		SeqLoc:   r.pl.PrivateLoc,
		CPUOps:   rs.colFront.Bytes()/8 + cnf,
	}
	rs.Compute(p, trace.BUComp, rs.team.Parallel(load))

	t0, x0 = p.Clock(), p.XportNs()
	mf := all.AllreduceSumInt64(p, mfLocal)
	rs.ChargeComm(p, trace.BUComm, t0, x0)

	t0, x0 = p.Clock(), p.XportNs()
	rs.rowAllgather(p, row)
	rs.ChargeComm(p, trace.BUComm, t0, x0)
	rs.Breakdown.BUCommCount++
	rs.rebuildSummary(p, trace.BUComp)
	return mf
}

// rowAllgather gathers the owned frontier segments along the grid row.
func (rs *rankState) rowAllgather(p *mpi.Proc, row *collective.Group) {
	r := rs.r
	if rs.rowCodec != nil {
		row.AllgatherRingCompressed(p, rs.rowFront.Words(), r.rowLayout, rs.rowCodec)
	} else {
		row.Allgather(p, rs.rowFront.Words(), r.rowLayout)
	}
}

// rebuildSummary recomputes the row-frontier summary after an
// allgather, charging the pass to ph.
func (rs *rankState) rebuildSummary(p *mpi.Proc, ph trace.Phase) {
	r := rs.r
	written := rs.rowSum.Rebuild(rs.rowFront)
	load := machine.PhaseLoad{
		SeqBytes: rs.rowFront.Bytes() + written*8,
		SeqLoc:   r.pl.PrivateLoc,
		CPUOps:   rs.rowFront.Bytes() / 8,
	}
	rs.Compute(p, ph, rs.team.Parallel(load))
}

// buScanFold runs the bottom-up scan over the column's unvisited
// vertices, folds the (child, parent) candidates along the column to
// their owners, resolves visitation and allreduces the new frontier
// size.
func (rs *rankState) buScanFold(p *mpi.Proc, all, col *collective.Group) int64 {
	r := rs.r
	send := rs.sendCol
	for i := range send {
		send[i] = send[i][:0]
	}
	res := rs.team.For(int64(r.Grid.R)*r.blockSize, omp.DefaultChunk, rs.buScan)
	rs.Compute(p, trace.BUComp, res.Ns)

	rs.StallBarrier(p, trace.BUComm)
	t0, x0 := p.Clock(), p.XportNs()
	rs.foldOutCol = col.AlltoallvInt64Into(p, send, rs.foldOutCol, rs.foldCodec)
	recv := rs.foldOutCol
	rs.ChargeComm(p, trace.BUComm, t0, x0)

	// Resolve at the owners: clear the owned frontier segments, then
	// mark the newly discovered vertices. Source-position order makes
	// the first-writer deterministic.
	lo := rs.ownLo()
	rs.clearOwnSegments()
	var nfLocal, pairs int64
	for _, vec := range recv {
		for k := 0; k+1 < len(vec); k += 2 {
			pairs++
			v, u := vec[k], vec[k+1]
			if i := v - lo; rs.parent[i] < 0 {
				rs.parent[i] = u
				rs.colFront.Set(int64(rs.i)*r.blockSize + i)
				rs.rowFront.Set(int64(rs.j)*r.blockSize + i)
				nfLocal++
			}
		}
	}
	rs.Visited += nfLocal
	proc := machine.PhaseLoad{
		Random: []machine.Access{
			{Count: pairs, StructBytes: r.blockSize * 8, Loc: r.pl.PrivateLoc},
		},
		SeqBytes: pairs*16 + r.blockSize/4,
		SeqLoc:   r.pl.PrivateLoc,
		CPUOps:   pairs * 2,
	}
	rs.Compute(p, trace.BUComp, rs.team.ForBalanced(pairs, 256, proc))

	t0, x0 = p.Clock(), p.XportNs()
	nf := all.AllreduceSumInt64(p, nfLocal)
	rs.ChargeComm(p, trace.BUComm, t0, x0)
	return nf
}

// buScan runs the scan kernel over column-relative vertices [lo, hi),
// one omp chunk (whole words of colVisited: block sizes are multiples of
// 64), queueing every found (child, parent) for the fold to the child's
// owner. Block size and column width divide 2^scale: powers of two.
func (rs *rankState) buScan(lo, hi int64, load *machine.PhaseLoad) {
	r := rs.r
	cLo, cHi := r.colRange(rs.j)
	sc := bitmap.BottomUpScan{RowPtr: rs.rowPtr, Col: rs.col, Front: rs.rowFront, Sum: rs.rowSum,
		Keep: uint(bits.TrailingZeros64(uint64(r.blockSize))), Drop: uint(bits.TrailingZeros64(uint64(cHi - cLo)))}
	for base := lo; base < hi; base += 64 {
		for k, u := range sc.Rows[:sc.Word(base, ^rs.colVisited.Words()[base>>6])] {
			rs.sendCol[u>>sc.Keep] = append(rs.sendCol[u>>sc.Keep], u+cLo, sc.Nbrs[k])
		}
	}
	load.Random = append(load.Random,
		machine.Access{Count: sc.Edges, StructBytes: rs.rowSum.Bytes(), Loc: r.pl.PrivateLoc},
		machine.Access{Count: sc.Probes, StructBytes: rs.rowFront.Bytes(), Loc: r.pl.PrivateLoc},
	)
	load.SeqBytes = (hi-lo)/8 + sc.Edges*8 + sc.Hits*16
	load.SeqLoc = r.pl.GraphLoc
	load.CPUOps = sc.Edges*2 + (hi - lo)
}

// clearOwnSegments zeroes the rank's own block segment in the column
// and row frontier bitmaps (the previous level's frontier).
func (rs *rankState) clearOwnSegments() {
	r := rs.r
	bsw := r.blockSize / 64
	cw := rs.colFront.Words()
	for w := int64(rs.i) * bsw; w < int64(rs.i+1)*bsw; w++ {
		cw[w] = 0
	}
	rw := rs.rowFront.Words()
	for w := int64(rs.j) * bsw; w < int64(rs.j+1)*bsw; w++ {
		rw[w] = 0
	}
}

// reset clears per-root state.
func (rs *rankState) reset() {
	for i := range rs.parent {
		rs.parent[i] = -1
	}
	rs.frontier = rs.frontier[:0]
	if rs.colVisited != nil {
		rs.colVisited.Reset()
	}
}
