package bfs2d

import (
	"fmt"

	"numabfs/internal/bitmap"
	"numabfs/internal/collective"
	"numabfs/internal/graph"
	"numabfs/internal/mpi"
	"numabfs/internal/omp"
	"numabfs/internal/wire"
)

// Setup generates the graph and builds the 2-D partitioned adjacency:
// each rank generates a slice of the R-MAT edge list, routes each
// directed adjacency (u, v) to the grid rank at (row of v's block,
// column of u), and builds its local CSR over the column's vertex range.
func (r *Runner) Setup() {
	if r.Mode != ModeTopDown {
		if r.blockSize%64 != 0 {
			panic(fmt.Sprintf("bfs2d: %s mode needs a block size divisible by 64, have %d", r.Mode, r.blockSize))
		}
		colWords := int64(r.Grid.R) * r.blockSize / 64
		rowWords := int64(r.Grid.C) * r.blockSize / 64
		r.colLayout = collective.EvenLayout(colWords, r.Grid.R)
		r.rowLayout = collective.EvenLayout(rowWords, r.Grid.C)
	}
	// Generation and routing are indexed by grid cell, not world rank:
	// with spares parked only the grid ranks run, and at zero spares
	// cell == rank so the historical slicing is reproduced exactly.
	r.W.Run(func(p *mpi.Proc) {
		cfg := r.cfg
		cells := r.Grid.R * r.Grid.C
		me := p.Rank()
		cell := int64(r.rankCell[me])
		ne := r.Params.NumEdges()
		lo := ne * cell / int64(cells)
		hi := ne * (cell + 1) / int64(cells)

		// Adjacency (u, v) goes to the cell at (row of v's block, column
		// of u).
		send := graph.RouteEdges(r.Params, lo, hi, cells, func(u, v int64) int {
			j := int(u / (int64(r.Grid.R) * r.blockSize))
			i := int(v/r.blockSize) % r.Grid.R
			return j*r.Grid.R + i
		})
		p.Compute(float64(hi-lo) * float64(r.Params.Scale) * 6 * cfg.CPUOpNs)

		recv := r.grid.AlltoallvInt64(p, send)

		i, j := r.gridOf(me)
		cLo, cHi := r.colRange(j)
		width := cHi - cLo
		csr := graph.BuildCSRFrom(cLo, cHi, recv, true)
		rs := &rankState{
			r: r, i: i, j: j,
			team:   omp.TeamFor(cfg, r.pl),
			rowPtr: csr.RowPtr,
			col:    csr.Col,
		}
		p.Compute(graph.BuildCostNs(cfg, recv, width))

		rs.parent = make([]int64, r.blockSize)
		if r.Compress {
			rs.codec = &wire.Codec{Team: rs.team, Loc: r.pl.PrivateLoc}
			rs.lists = make([][]int64, r.Grid.R)
			rs.foldCodec = &wire.Codec{Team: rs.team, Loc: r.pl.PrivateLoc}
			rs.foldOutRow = make([][]int64, r.Grid.C)
			rs.Track(rs.codec, rs.foldCodec)
		}
		if r.Mode != ModeTopDown {
			rs.colVisited = bitmap.New(width)
			rs.colFront = bitmap.New(width)
			rs.rowFront = bitmap.New(int64(r.Grid.C) * r.blockSize)
			rs.rowSum = bitmap.NewSummary(int64(r.Grid.C)*r.blockSize, bitmap.DefaultGranularity)
			rs.sendCol = make([][]int64, r.Grid.R)
			if r.Compress {
				rs.colCodec = &wire.Codec{Team: rs.team, Loc: r.pl.PrivateLoc}
				rs.rowCodec = &wire.Codec{Team: rs.team, Loc: r.pl.PrivateLoc}
				rs.foldOutCol = make([][]int64, r.Grid.R)
				rs.Track(rs.colCodec, rs.rowCodec)
			}
		}
		rs.sendRow = make([][]int64, r.Grid.C)
		rs.sent = make([]int64, int64(r.Grid.C)*r.blockSize)
		for k := range rs.sent {
			rs.sent[k] = -1
		}
		r.states[me] = rs
	})
	var edges int64
	for _, rs := range r.states {
		if rs != nil {
			edges += int64(len(rs.col))
		}
	}
	r.EndSetup(edges)
}

// neighbors returns the locally stored adjacency of global vertex u
// (which must lie in this rank's column range).
func (rs *rankState) neighbors(u int64) []uint32 {
	cLo, _ := rs.r.colRange(rs.j)
	i := u - cLo
	return rs.col[rs.rowPtr[i]:rs.rowPtr[i+1]]
}

// ownLo returns the first vertex of the rank's owned block.
func (rs *rankState) ownLo() int64 {
	return rs.r.block(rs.i, rs.j) * rs.r.blockSize
}
