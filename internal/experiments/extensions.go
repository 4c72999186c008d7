package experiments

import (
	"fmt"

	"numabfs/internal/bfs"
	"numabfs/internal/graph500"
	"numabfs/internal/machine"
)

// Ext2D compares the paper's 1-D hybrid BFS against the two-dimensional
// partitioned BFS of Buluç and Madduri, which the paper's related work
// calls out as an orthogonal way to cut communication ("they could
// reduce the communication overhead by a factor of 3.5"). Both engines
// run the same graphs on the same simulated cluster; the table reports
// TEPS and the measured per-iteration communication volume. The 2-D
// engine is compared against the 1-D engine in pure top-down mode (the
// algorithm Buluç and Madduri optimize) and against the full hybrid.
func Ext2D(s Spec) (*Table, error) {
	nodesSweep := []int{2, 4, 8}
	t := &Table{
		Name:    "Ext. 2-D",
		Title:   "1-D vs 2-D partitioning: TEPS and comm volume (MB/iteration)",
		Columns: nodeColumns(nodesSweep),
	}

	// Cells: series-major — 1-D top-down, 1-D hybrid, 2-D top-down
	// (uncompressed, at OptOriginal).
	series := []string{"1-D top-down", "1-D hybrid", "2-D"}
	cells := cross(series, nodesSweep, func(name string, nodes int) cell {
		opts := bfs.DefaultOptions()
		if name != "1-D hybrid" {
			opts.Mode = bfs.ModeTopDown
		}
		c := cell{fmt.Sprintf("%s/%dn", name, nodes), s.config(nodes, machine.PPN8Bind, opts)}
		if name == "2-D" {
			c.cfg.Grid = gridFor(c.cfg.Machine)
		}
		return c
	})
	res, err := s.collect(cells)
	if err != nil {
		return nil, err
	}

	grid := rows(res, len(nodesSweep))
	td, hy, d2 := grid[0], grid[1], grid[2]
	t.AddRow("1-D top-down TEPS", project(td, teps)...)
	t.AddRow("2-D top-down TEPS", project(d2, teps)...)
	t.AddRow("1-D hybrid TEPS", project(hy, teps)...)
	t.AddRow("1-D top-down comm MB", project(td, wireMB)...)
	t.AddRow("2-D top-down comm MB", project(d2, wireMB)...)
	t.AddRow("1-D hybrid comm MB", project(hy, wireMB)...)
	reduction := make([]float64, len(nodesSweep))
	for i := range reduction {
		if mb := wireMB(d2[i]); mb > 0 {
			reduction[i] = wireMB(td[i]) / mb
		}
	}
	t.AddRow("top-down comm reduction (1D/2D)", reduction...)
	t.Notes = append(t.Notes,
		"related work (Buluc & Madduri): 2-D partitioning cut BFS communication ~3.5x over 1-D top-down",
		"the hybrid row shows why the paper optimizes the hybrid instead: it avoids most top-down traffic outright")
	return t, nil
}

// AblationHybrid sweeps the hybrid switch thresholds (alpha) and
// compares the three algorithm modes — the design-choice ablation for
// the switching heuristic the paper inherits from Beamer et al.
func AblationHybrid(s Spec) (*Table, error) {
	const nodes = 4
	var ks []knob
	for _, mode := range []bfs.Mode{bfs.ModeTopDown, bfs.ModeBottomUp} {
		ks = append(ks, knob{fmt.Sprintf("pure %s", mode), func(o *bfs.Options) { o.Mode = mode }})
	}
	for _, alpha := range []float64{2, 14, 30, 100} {
		ks = append(ks, knob{fmt.Sprintf("alpha=%g", alpha), func(o *bfs.Options) { o.Alpha = alpha }})
	}
	cells := s.knobs(nodes, bfs.OptOriginal, ks)
	res, err := s.collect(cells)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Name:    "Abl. hybrid",
		Title:   fmt.Sprintf("Hybrid switch ablation (%d nodes, scale %d)", nodes, s.scaleFor(nodes)),
		Columns: []string{"TEPS", "td levels", "bu levels"},
		Notes:   []string{"the hybrid beats both pure modes across the alpha range (Sec. II.A)"},
	}
	rowLabels := labels(cells)
	for i := 2; i < len(rowLabels); i++ {
		rowLabels[i] = "hybrid " + rowLabels[i]
	}
	t.addColumns(rowLabels, project(res, teps),
		project(res, func(r *graph500.Result) float64 { return float64(r.Breakdown.TDLevels) }),
		project(res, func(r *graph500.Result) float64 { return float64(r.Breakdown.BULevels) }))
	return t, nil
}
