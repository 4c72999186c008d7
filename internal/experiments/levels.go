package experiments

import (
	"fmt"

	"numabfs/internal/bfs"
	"numabfs/internal/machine"
)

// LevelProfile reproduces the structural claims of Fig. 1 and Section
// II.B: the hybrid BFS runs three phases — top-down, then bottom-up,
// then top-down — on an R-MAT graph, with the overwhelming majority of
// vertices reached (and most time spent) in the bottom-up procedure.
// The table is the per-level frontier growth curve of a representative
// root on 4 nodes: the cell's first, which the prefix-stable Graph500
// draw makes independent of Spec.Roots.
func LevelProfile(s Spec) (*Table, error) {
	const nodes = 4
	scale := s.scaleFor(nodes)
	out, err := s.collect([]cell{{"profile", s.config(nodes, machine.PPN8Bind, bfs.DefaultOptions())}})
	if err != nil {
		return nil, err
	}
	res := out[0].PerRoot[0]

	t := &Table{
		Name:    "Fig. 1 / Sec. II.B",
		Title:   fmt.Sprintf("Hybrid BFS level profile (root %d, scale %d, %d nodes)", res.Root, scale, nodes),
		Columns: []string{"bottom-up", "frontier", "frontier edges", "ms"},
	}
	var buVerts, buNs, totNs float64
	for _, ls := range res.LevelStats {
		mode := 0.0
		if ls.BottomUp {
			mode = 1
			buVerts += float64(ls.NF)
			buNs += ls.Ns
		}
		totNs += ls.Ns
		t.AddRow(fmt.Sprintf("level %d", ls.Level), mode, float64(ls.NF), float64(ls.MF), ls.Ns/1e6)
	}
	t.AddRow("bottom-up share of visited", buVerts/float64(res.Visited-1))
	t.AddRow("bottom-up share of level time", buNs/totNs)
	t.Notes = append(t.Notes,
		"paper (Sec. II.B): most vertices are reached in the bottom-up procedure, which consumes most of the time",
		"the three-phase structure: top-down, bottom-up, top-down (Fig. 1)")
	return t, nil
}
