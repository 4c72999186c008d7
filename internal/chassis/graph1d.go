package chassis

import (
	"fmt"
	"slices"

	"numabfs/internal/collective"
	"numabfs/internal/graph"
	"numabfs/internal/mpi"
	"numabfs/internal/rmat"
)

// Graph1D holds the vertex-partitioned graph of the two 1-D engines
// (internal/bfs, internal/msbfs): the partition and each member's CSR,
// indexed by partition position. Both engines partition identically, so
// a graph built by one is directly shareable with the other
// (GraphCache).
type Graph1D struct {
	Part graph.Partition
	csrs []*graph.CSR

	// prebuilt marks csrs as installed from a cached build, whose virtual
	// construction time prebuiltNs Setup then reports.
	prebuilt   bool
	prebuiltNs float64
}

// NewGraph1D partitions n vertices over the given number of members.
func NewGraph1D(n int64, members int) Graph1D {
	return Graph1D{Part: graph.NewPartition(n, members), csrs: make([]*graph.CSR, members)}
}

// UsePrebuilt installs per-member CSRs cached from an earlier build with
// identical parameters (scale, edge factor, seed, member count, dedup):
// Setup then skips distributed construction (kernel 1) and reports
// setupNs — the cached build's virtual construction time — as SetupNs,
// so results are bit-identical to a fresh build. Call before Setup.
func (g *Graph1D) UsePrebuilt(csrs []*graph.CSR, setupNs float64) error {
	if len(csrs) != len(g.csrs) {
		return fmt.Errorf("chassis: prebuilt CSRs for %d members, partition has %d", len(csrs), len(g.csrs))
	}
	copy(g.csrs, csrs)
	g.prebuilt, g.prebuiltNs = true, setupNs
	return nil
}

// CSRs returns each member's CSR (aliases; the graph is read-only during
// BFS). Valid after Setup; used to populate the graph cache.
func (g *Graph1D) CSRs() []*graph.CSR { return slices.Clone(g.csrs) }

// HasEdgeGlobal reports whether vertex v has any incident edge, by asking
// its owner's CSR. Used for Graph500 root selection.
func (g *Graph1D) HasEdgeGlobal(v int64) bool { return g.csrs[g.Part.Owner(v)].HasEdge(v) }

// Build returns the CSR of partition position pos: the prebuilt one, or
// this rank's share of distributed construction (kernel 1), which every
// member of the group runs together inside Setup.
func (g *Graph1D) Build(p *mpi.Proc, members *collective.Group, pos int, params rmat.Params, dedup bool) *graph.CSR {
	if !g.prebuilt {
		g.csrs[pos] = graph.BuildDistributed(p, members, g.Part, params, dedup)
	}
	return g.csrs[pos]
}

// Built closes kernel 1 on c (Core.EndSetup); a prebuilt graph reports
// the cached build's construction time.
func (g *Graph1D) Built(c *Core) {
	var edges int64
	for _, csr := range g.csrs {
		edges += csr.NumEdges()
	}
	c.EndSetup(edges)
	if g.prebuilt {
		c.SetupNs = g.prebuiltNs
	}
}

// RemoveRank removes partition position dead after its rank died for
// good: a contiguous survivor absorbs its vertex range — the
// predecessor, or the successor when position 0 dies and the dead range
// comes first — and the dead range's adjacency is concatenated onto the
// absorber's. Returns the absorber's new position, its merged CSR and
// the dead member's CSR.
func (g *Graph1D) RemoveRank(dead int) (absorber int, merged, lost *graph.CSR) {
	lost = g.csrs[dead]
	g.Part, absorber = g.Part.RemoveRank(dead)
	g.csrs = slices.Delete(g.csrs, dead, dead+1)
	if dead == 0 {
		merged = graph.MergeCSR(lost, g.csrs[absorber])
	} else {
		merged = graph.MergeCSR(g.csrs[absorber], lost)
	}
	g.csrs[absorber] = merged
	return absorber, merged, lost
}
