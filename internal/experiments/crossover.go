package experiments

import (
	"fmt"

	"numabfs/internal/bfs"
	"numabfs/internal/bfs2d"
	"numabfs/internal/engine"
	"numabfs/internal/machine"
)

// ExtCrossover maps the 1-D/2-D crossover: both engines run at the top
// of their optimization ladders (the 1-D hybrid with the compressed
// allgather, the 2-D hybrid with compressed folds) over the weak-scaling
// node sweep, every BFS tree is validated against the Graph500 rule set,
// and the measured winner of each cell is compared with the verdict of
// the analytic selector (internal/engine), which prices both engines
// from the machine model alone. The table shows where the 2-D engine's
// smaller frontier bitmaps beat the 1-D engine's narrower scans — and
// that the selector finds that boundary without running either engine.
func ExtCrossover(s Spec) (*Table, error) {
	nodesSweep := []int{2, 4, 8}
	t := &Table{
		Name:    "Ext. crossover",
		Title:   "1-D/2-D crossover: measured winner vs model-driven selector",
		Columns: nodeColumns(nodesSweep),
	}

	// Cells: series-major — 1-D hybrid, then 2-D hybrid.
	cells := cross([]string{"1-D", "2-D"}, nodesSweep, func(series string, nodes int) cell {
		c := cell{fmt.Sprintf("%s/%dn", series, nodes), s.config(nodes, machine.PPN8Bind, optsAt(bfs.OptCompressedAllgather))}
		c.cfg.Validate = true
		if series == "2-D" {
			c.cfg.Grid = gridFor(c.cfg.Machine)
		}
		return c
	})
	points, err := s.collect(cells)
	if err != nil {
		return nil, err
	}

	n := len(nodesSweep)
	teps1, teps2 := make([]float64, n), make([]float64, n)
	measRatio, modelRatio := make([]float64, n), make([]float64, n)
	meas2D, pick2D, agree := make([]float64, n), make([]float64, n), make([]float64, n)
	for i, nodes := range nodesSweep {
		p1, p2 := points[i], points[n+i]
		teps1[i], teps2[i] = p1.HarmonicTEPS, p2.HarmonicTEPS
		if p1.MeanTimeNs > 0 {
			measRatio[i] = p2.MeanTimeNs / p1.MeanTimeNs
		}
		ch := engine.Select(s.clusterConfig(nodes), s.scaleFor(nodes), nodes)
		modelRatio[i] = ch.Ratio()
		if p2.MeanTimeNs < p1.MeanTimeNs {
			meas2D[i] = 1
		}
		if ch.Use2D {
			pick2D[i] = 1
		}
		if ch.Use2D == (p2.MeanTimeNs < p1.MeanTimeNs) {
			agree[i] = 1
		}
	}
	t.AddRow("1-D hybrid TEPS", teps1...)
	t.AddRow("2-D hybrid TEPS", teps2...)
	t.AddRow("measured time ratio (2D/1D)", measRatio...)
	t.AddRow("model cost ratio (2D/1D)", modelRatio...)
	t.AddRow("measured winner is 2-D (=1)", meas2D...)
	t.AddRow("selector picks 2-D (=1)", pick2D...)
	t.AddRow("selector agrees (=1)", agree...)
	t.Notes = append(t.Notes,
		"every root of every cell passed Graph500 tree validation (1-D and 2-D validators)",
		"the selector prices both engines from the machine model alone (internal/engine), no trial runs")
	return t, nil
}

// gridFor is the 2-D engine's default grid over the ranks of a ppn=8
// machine (one rank per socket).
func gridFor(cfg machine.Config) bfs2d.Grid {
	return bfs2d.DefaultGrid(cfg.Nodes * cfg.SocketsPerNode)
}
