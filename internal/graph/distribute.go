package graph

import (
	"math"

	"numabfs/internal/collective"
	"numabfs/internal/machine"
	"numabfs/internal/mpi"
	"numabfs/internal/rmat"
)

// BuildDistributed is Graph500 kernel 1 in its distributed form: every
// member of g generates its slice of the R-MAT edge list, routes each
// directed adjacency (u, v) — both directions of every undirected edge —
// to the member dest(u, v) names, and builds its local CSR over the rows
// [vlo, vhi) it receives. Generation and construction costs are charged
// to the rank's virtual clock; the alltoallv charges communication. The
// 1-D engines route by the partition owner of u, the 2-D engine by the
// grid cell of (u's column, v's row).
func BuildDistributed(p *mpi.Proc, g *collective.Group, params rmat.Params, dedup bool, dest func(u, v int64) int, vlo, vhi int64) *CSR {
	cfg := p.World().Config()
	np := g.Size()
	me := g.Pos(p.Rank())
	ne := params.NumEdges()
	lo := ne * int64(me) / int64(np)
	hi := ne * int64(me+1) / int64(np)

	send := RouteEdges(params, lo, hi, np, dest)
	// Generation: ~Scale quadrant draws of a few ops per edge.
	p.Compute(float64(hi-lo) * float64(params.Scale) * 6 * cfg.CPUOpNs)

	recv := g.AlltoallvInt64(p, send)

	csr := BuildCSRFrom(vlo, vhi, recv, dedup)
	p.Compute(BuildCostNs(cfg, recv, vhi-vlo))
	return csr
}

// RouteEdges generates edges [lo, hi) of the R-MAT list and sorts their
// two directed adjacencies (u, v) and (v, u) into nd send vectors, the
// one dest(src, nbr) names. Self-loops are dropped. Each vector holds
// flat (src, nbr) pairs in increasing edge index, (u, v) before (v, u);
// all are exact-sized windows of one allocation, sized by a counting
// pass over the generated block.
func RouteEdges(params rmat.Params, lo, hi int64, nd int, dest func(src, nbr int64) int) [][]int64 {
	edges := params.Edges(make([]int64, 0, 2*(hi-lo)), lo, hi)
	offs := make([]int64, nd+1)
	for k := 0; k < len(edges); k += 2 {
		if u, v := edges[k], edges[k+1]; u != v {
			offs[dest(u, v)+1] += 2
			offs[dest(v, u)+1] += 2
		}
	}
	for d := 0; d < nd; d++ {
		offs[d+1] += offs[d]
	}
	flat := make([]int64, offs[nd])
	send := make([][]int64, nd)
	for d := range send {
		send[d] = flat[offs[d]:offs[d]:offs[d+1]]
	}
	for k := 0; k < len(edges); k += 2 {
		if u, v := edges[k], edges[k+1]; u != v {
			du, dv := dest(u, v), dest(v, u)
			send[du] = append(send[du], u, v)
			send[dv] = append(send[dv], v, u)
		}
	}
	return send
}

// BuildCostNs is the modelled cost of building a CSR of width rows from
// the received pair vectors: the counting-sort passes stream the pairs
// twice, and per-row sorting costs ~m log(avg degree) comparisons.
func BuildCostNs(cfg machine.Config, recv [][]int64, width int64) float64 {
	var vals int
	for _, vec := range recv {
		vals += len(vec)
	}
	m := float64(vals / 2)
	logd := math.Log2(1 + m/math.Max(1, float64(width)))
	return m*16/cfg.MemBWPerSocket + m*logd*4*cfg.CPUOpNs
}
