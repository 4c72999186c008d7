package chassis

import (
	"fmt"
	"slices"

	"numabfs/internal/collective"
	"numabfs/internal/graph"
	"numabfs/internal/mpi"
	"numabfs/internal/rmat"
)

// Graph holds an engine's distributed graph, whatever its layout: each
// member's CSR, indexed by member position (a 1-D partition position, a
// 2-D grid cell). It is what the graph cache stores and what the
// Graph500 validator reads.
type Graph struct {
	csrs []*graph.CSR

	// prebuilt marks csrs as installed from a cached build, whose virtual
	// construction time prebuiltNs Setup then reports.
	prebuilt   bool
	prebuiltNs float64
}

// NewGraph returns a graph of the given number of members, not yet
// built.
func NewGraph(members int) Graph { return Graph{csrs: make([]*graph.CSR, members)} }

// UsePrebuilt installs per-member CSRs cached from an earlier build with
// identical parameters (GraphKey): Setup then skips distributed
// construction (kernel 1) and reports setupNs — the cached build's
// virtual construction time — as SetupNs, so results are bit-identical
// to a fresh build. Call before Setup.
func (g *Graph) UsePrebuilt(csrs []*graph.CSR, setupNs float64) error {
	if len(csrs) != len(g.csrs) {
		return fmt.Errorf("chassis: prebuilt CSRs for %d members, the graph has %d", len(csrs), len(g.csrs))
	}
	copy(g.csrs, csrs)
	g.prebuilt, g.prebuiltNs = true, setupNs
	return nil
}

// CSRs returns each member's CSR (aliases; the graph is read-only during
// BFS). Valid after Setup; used to populate the graph cache.
func (g *Graph) CSRs() []*graph.CSR { return slices.Clone(g.csrs) }

// Build returns the CSR of member pos: the prebuilt one, or this rank's
// share of distributed construction (kernel 1, graph.BuildDistributed
// routing by dest onto the rows [vlo, vhi)), which every member of the
// group runs together inside Setup.
func (g *Graph) Build(p *mpi.Proc, members *collective.Group, pos int, params rmat.Params, dedup bool, dest func(u, v int64) int, vlo, vhi int64) *graph.CSR {
	if !g.prebuilt {
		g.csrs[pos] = graph.BuildDistributed(p, members, params, dedup, dest, vlo, vhi)
	}
	return g.csrs[pos]
}

// Built closes kernel 1 on c (Core.EndSetup); a prebuilt graph reports
// the cached build's construction time.
func (g *Graph) Built(c *Core) {
	var edges int64
	for _, csr := range g.csrs {
		edges += csr.NumEdges()
	}
	c.EndSetup(edges)
	if g.prebuilt {
		c.SetupNs = g.prebuiltNs
	}
}

// Graph1D holds the vertex-partitioned graph of the two 1-D engines
// (internal/bfs, internal/msbfs): the partition and, per partition
// position, the CSR of its whole rows. Both engines partition
// identically, so a graph built by one is directly shareable with the
// other (GraphCache).
type Graph1D struct {
	Graph
	Part graph.Partition
}

// NewGraph1D partitions n vertices over the given number of members.
func NewGraph1D(n int64, members int) Graph1D {
	return Graph1D{Graph: NewGraph(members), Part: graph.NewPartition(n, members)}
}

// HasEdgeGlobal reports whether vertex v has any incident edge, by asking
// its owner's CSR. Used for Graph500 root selection.
func (g *Graph1D) HasEdgeGlobal(v int64) bool { return g.csrs[g.Part.Owner(v)].HasEdge(v) }

// Build is Graph.Build over the partition: every adjacency (u, v) goes
// to u's owner, and position pos builds its vertex range.
func (g *Graph1D) Build(p *mpi.Proc, members *collective.Group, pos int, params rmat.Params, dedup bool) *graph.CSR {
	lo, hi := g.Part.Range(pos)
	return g.Graph.Build(p, members, pos, params, dedup, func(u, _ int64) int { return g.Part.Owner(u) }, lo, hi)
}
