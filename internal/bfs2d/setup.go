package bfs2d

import (
	"fmt"

	"numabfs/internal/bitmap"
	"numabfs/internal/collective"
	"numabfs/internal/mpi"
	"numabfs/internal/omp"
	"numabfs/internal/wire"
)

// Setup runs kernel 1 on the grid and allocates per-rank BFS state:
// each cell builds its share of the graph (graph.BuildDistributed,
// through the chassis Graph so a cached build is reused), routing each
// directed adjacency (u, v) to the cell at (row of v's block, column of
// u), and holds a CSR over its column's vertex range.
func (r *Runner) Setup() {
	if err := r.CheckMode(); err != nil {
		panic(err)
	}
	if r.Mode != ModeTopDown {
		colWords := int64(r.Grid.R) * r.blockSize / 64
		rowWords := int64(r.Grid.C) * r.blockSize / 64
		r.colLayout = collective.EvenLayout(colWords, r.Grid.R)
		r.rowLayout = collective.EvenLayout(rowWords, r.Grid.C)
	}
	cell := func(u, v int64) int {
		j := int(u / (int64(r.Grid.R) * r.blockSize))
		i := int(v/r.blockSize) % r.Grid.R
		return j*r.Grid.R + i
	}
	// The grid group lists the cells in order (the member positions),
	// so with spares parked only the grid ranks run.
	r.W.Run(func(p *mpi.Proc) {
		me := r.Members.Pos(p.Rank())
		i, j := me%r.Grid.R, me/r.Grid.R
		cLo, cHi := r.colRange(j)
		csr := r.Build(p, r.grid, me, r.Params, true, cell, cLo, cHi)
		rs := &rankState{
			r: r, i: i, j: j,
			team:   omp.TeamFor(r.cfg, r.pl),
			rowPtr: csr.RowPtr,
			col:    csr.Col,
		}
		rs.parent = make([]int64, r.blockSize)
		if r.Compress {
			rs.codec = &wire.Codec{Team: rs.team, Loc: r.pl.PrivateLoc}
			rs.lists = make([][]int64, r.Grid.R)
			rs.foldCodec = &wire.Codec{Team: rs.team, Loc: r.pl.PrivateLoc}
			rs.foldOutRow = make([][]int64, r.Grid.C)
			rs.Track(rs.codec, rs.foldCodec)
		}
		if r.Mode != ModeTopDown {
			rs.colVisited = bitmap.New(cHi - cLo)
			rs.colFront = bitmap.New(cHi - cLo)
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
	r.Built(&r.Core)
}

// CheckMode reports whether Mode can run on the runner's grid: the
// bottom-up levels allgather whole words of each block's frontier bits,
// so they need a block size divisible by 64.
func (r *Runner) CheckMode() error {
	if r.Mode != ModeTopDown && r.blockSize%64 != 0 {
		return fmt.Errorf("bfs2d: %s mode needs a block size divisible by 64, have %d", r.Mode, r.blockSize)
	}
	return nil
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
