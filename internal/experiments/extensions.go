package experiments

import (
	"fmt"

	"numabfs/internal/bfs"
	"numabfs/internal/bfs2d"
	"numabfs/internal/graph500"
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

	// Cells: series-major — 1-D top-down, 1-D hybrid, 2-D.
	modes := []bfs.Mode{bfs.ModeTopDown, bfs.ModeHybrid}
	var cells []string
	for _, series := range []string{"1-D " + modes[0].String(), "1-D " + modes[1].String(), "2-D"} {
		for _, nodes := range nodesSweep {
			cells = append(cells, fmt.Sprintf("%s/%dn", series, nodes))
		}
	}
	points, err := gather(s, cells, func(cs Spec, i int) (engineStats, error) {
		series, nodes := i/len(nodesSweep), nodesSweep[i%len(nodesSweep)]
		if series == len(modes) {
			return cs.run2D("ext2d", nodes, bfs2d.ModeTopDown, false, false)
		}
		opts := bfs.DefaultOptions()
		opts.Mode = modes[series]
		return cs.run1D(fmt.Sprintf("ext2d 1-D %s nodes=%d", opts.Mode, nodes), nodes, opts, false)
	})
	if err != nil {
		return nil, err
	}

	grid := rows(points, len(nodesSweep))
	td, hy, d2 := grid[0], grid[1], grid[2]
	tepsOf := func(p engineStats) float64 { return p.teps }
	commOf := func(p engineStats) float64 { return p.commMB }
	t.AddRow("1-D top-down TEPS", project(td, tepsOf)...)
	t.AddRow("2-D top-down TEPS", project(d2, tepsOf)...)
	t.AddRow("1-D hybrid TEPS", project(hy, tepsOf)...)
	t.AddRow("1-D top-down comm MB", project(td, commOf)...)
	t.AddRow("2-D top-down comm MB", project(d2, commOf)...)
	t.AddRow("1-D hybrid comm MB", project(hy, commOf)...)
	reduction := make([]float64, len(nodesSweep))
	for i := range reduction {
		if d2[i].commMB > 0 {
			reduction[i] = td[i].commMB / d2[i].commMB
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
