// Package bfs2d implements the two-dimensional partitioned BFS of Buluç
// and Madduri (SC'11), which the paper's related-work section singles
// out as orthogonal to its NUMA optimizations: "our implementation could
// be applied to 2-D partition algorithm to further reduce its
// communication overhead".
//
// The np = R x C ranks form a processor grid. The vertex set is split
// into np blocks; rank (i, j) owns block j*R+i (so a processor column j
// collectively owns the contiguous vertex range C_j) and stores the
// adjacency entries (u, v) with u in C_j and v in a block of grid row i.
// A top-down level is then:
//
//	expand: allgather the frontier's C_j vertices down processor
//	        column j (R ranks);
//	local:  scan the local adjacency of the expanded frontier,
//	        producing (child, parent) candidates;
//	fold:   alltoallv the candidates along the grid row (C ranks) to
//	        the child's owner, which resolves visitation.
//
// Communication therefore involves groups of R and C ranks instead of
// all np — the structural reason 2-D partitioning cuts BFS
// communication, here measurable against the 1-D engine on the same
// simulated cluster (the Ext experiment).
package bfs2d

import (
	"fmt"

	"numabfs/internal/bitmap"
	"numabfs/internal/chassis"
	"numabfs/internal/collective"
	"numabfs/internal/machine"
	"numabfs/internal/obs"
	"numabfs/internal/omp"
	"numabfs/internal/rmat"
	"numabfs/internal/wire"
)

// Mode selects the 2-D engine's traversal direction policy, mirroring
// the 1-D engine's ladder. The zero value is the engine's historical
// pure top-down loop, so existing callers (and the committed bench
// tables) are bit-identical by construction.
type Mode int

const (
	// ModeTopDown runs every level top-down (expand/scan/fold).
	ModeTopDown Mode = iota
	// ModeHybrid switches between top-down and bottom-up per level with
	// the same Beamer-style alpha/beta heuristic as the 1-D engine.
	ModeHybrid
	// ModeBottomUp runs every level bottom-up.
	ModeBottomUp
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case ModeTopDown:
		return "top-down"
	case ModeHybrid:
		return "hybrid"
	case ModeBottomUp:
		return "bottom-up"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Grid describes the processor grid.
type Grid struct {
	R, C int // rows x columns; R*C ranks
}

// DefaultGrid splits np into the most square power-of-two grid.
func DefaultGrid(np int) Grid {
	if np&(np-1) != 0 {
		// Fall back to a single row for non-power-of-two rank counts.
		return Grid{R: 1, C: np}
	}
	log := 0
	for v := np; v > 1; v >>= 1 {
		log++
	}
	r := 1 << uint(log/2)
	return Grid{R: r, C: np / r}
}

// Runner is the 2-D BFS engine. Build with NewRunner, call Setup once,
// then RunRoot per source.
type Runner struct {
	// Core is the world, the fault/obs plumbing, the crash-retry loop and
	// the result tail. A scheduled rank crash is survived by rerunning
	// from the root with clocks floored at detection time.
	chassis.Core
	// Graph holds one CSR per grid cell, in cell order: the column's
	// vertex range, restricted to the cell's grid row.
	chassis.Graph
	Grid Grid

	// Compress routes the level loop's collectives through the wire
	// codecs: the expand phase's frontier vertex lists and the fold
	// phase's (child, parent) pairs travel varint-delta encoded, and in
	// bottom-up levels the frontier bitmap allgathers use the adaptive
	// dense/sparse/RLE ring — the 2-D engine's share of the
	// OptCompressedAllgather machinery. Set before Setup.
	Compress bool

	// Mode selects the traversal direction policy (top-down, hybrid,
	// bottom-up). The zero value is pure top-down — the engine's
	// historical behaviour. Set before Setup; hybrid and bottom-up
	// require the per-rank block size to be a multiple of 64 so frontier
	// bitmaps allgather on word boundaries. Hybrid switches at the 1-D
	// engine's default thresholds (chassis.DefaultAlpha/DefaultBeta), and
	// the bottom-up row-frontier summary has the Graph500 reference
	// granule (bitmap.DefaultGranularity).
	Mode Mode

	cfg machine.Config
	pl  machine.Placement

	blockSize int64 // vertices per block (n / (R*C))

	// cellRank maps grid cell j*R+i to the world rank currently holding
	// it, rankCell inverts it (-1 for parked spares and dead ranks). At
	// construction the map is the identity over the first R*C ranks; a
	// promotion rewrites one cell. The grid shape itself never changes.
	cellRank []int
	rankCell []int
	// spares are the parked hot-spare ranks still available, in rank
	// order (world ranks beyond the grid when NewRunnerSpares asked for
	// them).
	spares []int

	grid *collective.Group   // all grid cells, in cell order
	cols []*collective.Group // column group per j: cells (0..R-1, j)
	rows []*collective.Group // row group per i: cells (i, 0..C-1)

	// colLayout/rowLayout split the column/row frontier bitmaps into
	// per-member word segments for the bottom-up allgathers.
	colLayout collective.Layout
	rowLayout collective.Layout

	// states is indexed by world rank; parked spares and dead ranks hold
	// nil.
	states []*rankState
}

// rankState is one rank's 2-D state.
type rankState struct {
	chassis.Ledger
	r    *Runner
	i, j int
	team omp.Team

	// Local adjacency: for u in colRange (relative), neighbours v that
	// fall into this grid row's blocks.
	rowPtr []int64
	col    []uint32

	// Owned vertex block state.
	parent []int64

	frontier []int64 // owned frontier entering the next level

	// codec (nil when Compress is off) encodes the rank's frontier list
	// once per level for the expand; foldCodec serves the fold alltoallv
	// (one codec per collective purpose — fold payloads alias its slot
	// scratch while expand payloads alias codec's). lists and
	// foldOutRow/foldOutCol are the retained result tables of the expand
	// and of the row (top-down) and column (bottom-up) folds, decode
	// scratch under a codec.
	codec      *wire.Codec
	lists      [][]int64
	foldCodec  *wire.Codec
	foldOutRow [][]int64
	foldOutCol [][]int64

	// Bottom-up state (nil below ModeHybrid/ModeBottomUp):
	//
	//   colVisited — visited bits over the column's vertex range,
	//                maintained every level so the bottom-up scan skips
	//                settled vertices;
	//   colFront   — the column frontier bitmap; owners write their
	//                block's segment, the column allgather fills the
	//                rest;
	//   rowFront   — the frontier restricted to this grid row's blocks
	//                (what local adjacencies can hit), gathered along
	//                the row; rowSum summarizes it;
	//   sendCol    — the bottom-up fold's per-column-member candidate
	//                buffers.
	colVisited *bitmap.Bitmap
	colFront   *bitmap.Bitmap
	rowFront   *bitmap.Bitmap
	rowSum     *bitmap.Summary
	sendCol    [][]int64
	sendRow    [][]int64
	colCodec   *wire.Codec
	rowCodec   *wire.Codec

	// sent stamps deduplicate fold candidates: a vertex discovered by
	// several local frontier sources is sent to its owner once per level
	// (Buluç & Madduri's optimization — the column aggregates R blocks'
	// worth of edges, so duplicates are common). Indexed by the
	// destination-ordinal and in-block offset of v; stamp equality means
	// "already sent this level".
	sent      []int64
	sentStamp int64
}

// NewRunner builds a 2-D runner covering every rank of the placement.
// The placement policy fixes ranks per node exactly as in the 1-D
// engine.
func NewRunner(cfg machine.Config, policy machine.Policy, grid Grid, params rmat.Params) (*Runner, error) {
	return NewRunnerSpares(cfg, policy, grid, params, 0)
}

// NewRunnerSpares builds a 2-D runner with the last `spares` world ranks
// parked as hot spares: the grid covers the first R*C ranks, and a
// permanent crash promotes a spare into the dead rank's grid cell (the
// cell→rank table is remapped; the grid shape and every block range are
// untouched). With no spare left a permanent crash reruns in place,
// like a transient one.
func NewRunnerSpares(cfg machine.Config, policy machine.Policy, grid Grid, params rmat.Params, spares int) (*Runner, error) {
	if spares < 0 {
		return nil, fmt.Errorf("bfs2d: negative spare count %d", spares)
	}
	r := &Runner{Grid: grid, cfg: cfg}
	var err error
	if r.Core, err = chassis.NewCore(cfg, policy, params, r.ledgers); err != nil {
		return nil, err
	}
	w := r.W
	r.pl = w.Placement()
	np := w.NumProcs()
	if grid.R*grid.C != np-spares {
		return nil, fmt.Errorf("bfs2d: grid %dx%d does not match %d ranks (%d spares)", grid.R, grid.C, np, spares)
	}
	cells := grid.R * grid.C
	n := params.NumVertices()
	if n%int64(cells) != 0 {
		return nil, fmt.Errorf("bfs2d: %d vertices not divisible by %d grid cells", n, cells)
	}
	r.blockSize = n / int64(cells)
	r.Graph = chassis.NewGraph(cells)
	r.cellRank = make([]int, cells)
	r.rankCell = make([]int, np)
	for c := 0; c < cells; c++ {
		r.cellRank[c], r.rankCell[c] = c, c
	}
	for rank := cells; rank < np; rank++ {
		r.rankCell[rank] = -1
		r.spares = append(r.spares, rank)
	}
	if len(r.spares) > 0 {
		w.Park(r.spares)
	}
	r.rebuildGroups()
	r.states = make([]*rankState, np)
	return r, nil
}

// ledgers appends the cells' ledgers in world-rank order, the order
// their breakdowns are averaged in.
func (r *Runner) ledgers(buf []*chassis.Ledger) []*chassis.Ledger {
	for _, rs := range r.states {
		if rs != nil {
			buf = append(buf, &rs.Ledger)
		}
	}
	return buf
}

// rebuildGroups derives the grid, column and row groups from the
// current cell→rank table. Called at construction and after a
// promotion remapped a cell.
func (r *Runner) rebuildGroups() {
	r.grid = collective.NewGroup(r.W, r.cellRank)
	r.cols = make([]*collective.Group, r.Grid.C)
	for j := 0; j < r.Grid.C; j++ {
		ranks := make([]int, r.Grid.R)
		for i := 0; i < r.Grid.R; i++ {
			ranks[i] = r.rankOf(i, j)
		}
		r.cols[j] = collective.NewGroup(r.W, ranks)
	}
	r.rows = make([]*collective.Group, r.Grid.R)
	for i := 0; i < r.Grid.R; i++ {
		ranks := make([]int, r.Grid.C)
		for j := 0; j < r.Grid.C; j++ {
			ranks[j] = r.rankOf(i, j)
		}
		r.rows[i] = collective.NewGroup(r.W, ranks)
	}
}

// promote swaps an available spare into the dead rank's grid cell,
// parking the modelled re-own cost of the spare adopting the cell's
// state (adjacency and parent block) out of node scratch in the moved
// state's ledger. With no spare left, or when the dead rank holds no
// cell, it does nothing and the dead rank reruns in place.
func (r *Runner) promote(dead int, floor float64) {
	if len(r.spares) == 0 || r.rankCell[dead] < 0 {
		return
	}
	// Prefer a spare on the dead rank's node (scratch adoption at
	// shared-memory bandwidth); otherwise take the first one.
	deadNode := r.W.Proc(dead).Node()
	pick := 0
	for k, s := range r.spares {
		if r.W.Proc(s).Node() == deadNode {
			pick = k
			break
		}
	}
	spare := r.spares[pick]
	r.spares = append(r.spares[:pick], r.spares[pick+1:]...)

	cell := r.rankCell[dead]
	r.W.Promote(spare, dead)
	r.cellRank[cell] = spare
	r.rankCell[spare] = cell
	r.rankCell[dead] = -1
	r.rebuildGroups()

	// The spare re-binds the cell's state wholesale; the recovery is a
	// full rerun, so only the adjacency and the parent block move.
	rs := r.states[dead]
	r.states[spare], r.states[dead] = rs, nil
	bytes := int64(len(rs.col))*8 + int64(len(rs.rowPtr))*8 + int64(len(rs.parent))*8
	rs.ParkReown(r.ReownCostNs(bytes, deadNode, r.W.Proc(spare).Node()))

	r.W.Proc(spare).Obs().FaultEvent("promote", floor)
	r.W.Proc(r.cellRank[0]).Obs().Sample(obs.GaugeLiveRanks, floor, float64(len(r.cellRank)))
}

// rankOf maps grid coordinates to the rank currently holding the cell:
// grid rows vary fastest within a processor column, and at construction
// a column's R ranks are consecutive — on an R-ranks-per-node placement
// a whole column lands on one node, giving the expand phase intra-node
// communication. A promotion may remap individual cells.
func (r *Runner) rankOf(i, j int) int { return r.cellRank[j*r.Grid.R+i] }

// gridOf returns the grid coordinates of the cell a rank holds; the
// rank must hold one.
func (r *Runner) gridOf(rank int) (i, j int) {
	c := r.rankCell[rank]
	return c % r.Grid.R, c / r.Grid.R
}

// block returns the block id owned by grid position (i, j).
func (r *Runner) block(i, j int) int64 { return int64(j*r.Grid.R + i) }

// ownerOf returns the rank owning vertex v's block.
func (r *Runner) ownerOf(v int64) int { return r.cellRank[v/r.blockSize] }

// colRange returns the contiguous vertex range of processor column j.
func (r *Runner) colRange(j int) (lo, hi int64) {
	lo = int64(j) * int64(r.Grid.R) * r.blockSize
	return lo, lo + int64(r.Grid.R)*r.blockSize
}
