package experiments

import (
	"fmt"

	"numabfs/internal/bfs"
	"numabfs/internal/bfs2d"
	"numabfs/internal/graph500"
	"numabfs/internal/machine"
	"numabfs/internal/rmat"
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
		Columns: []string{"2 nodes", "4 nodes", "8 nodes"},
	}

	// Slots: series-major — 1-D top-down, 1-D hybrid, 2-D — matching the
	// sequential schedule.
	points := make([]engineStats, 3*len(nodesSweep))
	var cells []cell
	for si, mode := range []bfs.Mode{bfs.ModeTopDown, bfs.ModeHybrid} {
		for ni, nodes := range nodesSweep {
			slot := si*len(nodesSweep) + ni
			mode, nodes := mode, nodes
			cells = append(cells, cell{
				label: fmt.Sprintf("1-D %s/%dn", mode, nodes),
				run: func(cs Spec) error {
					opts := bfs.DefaultOptions()
					opts.Mode = mode
					r, err := bfs.NewRunner(cs.clusterConfig(nodes), machine.PPN8Bind, rmat.Graph500(cs.scaleFor(nodes)), opts)
					if err != nil {
						return fmt.Errorf("ext2d 1-D %s: %w", mode, err)
					}
					points[slot], err = cs.runEngine(fmt.Sprintf("ext2d 1-D %s nodes=%d", mode, nodes), r, r.Params, nil)
					return err
				},
			})
		}
	}
	for ni, nodes := range nodesSweep {
		slot := 2*len(nodesSweep) + ni
		nodes := nodes
		cells = append(cells, cell{
			label: fmt.Sprintf("2-D/%dn", nodes),
			run: func(cs Spec) error {
				cfg := cs.clusterConfig(nodes)
				grid := bfs2d.DefaultGrid(nodes * cfg.SocketsPerNode)
				r, err := bfs2d.NewRunner(cfg, machine.PPN8Bind, grid, rmat.Graph500(cs.scaleFor(nodes)))
				if err != nil {
					return fmt.Errorf("ext2d 2-D: %w", err)
				}
				points[slot], err = cs.runEngine(fmt.Sprintf("ext2d 2-D %dx%d nodes=%d", grid.R, grid.C, nodes), r, r.Params, nil)
				return err
			},
		})
	}
	if err := s.runCells("2d", cells); err != nil {
		return nil, err
	}

	row := func(series int, f func(engineStats) float64) []float64 {
		vals := make([]float64, len(nodesSweep))
		for i := range nodesSweep {
			vals[i] = f(points[series*len(nodesSweep)+i])
		}
		return vals
	}
	td, hy, d2 := 0, 1, 2
	t.AddRow("1-D top-down TEPS", row(td, func(p engineStats) float64 { return p.teps })...)
	t.AddRow("2-D top-down TEPS", row(d2, func(p engineStats) float64 { return p.teps })...)
	t.AddRow("1-D hybrid TEPS", row(hy, func(p engineStats) float64 { return p.teps })...)
	t.AddRow("1-D top-down comm MB", row(td, func(p engineStats) float64 { return p.commMB })...)
	t.AddRow("2-D top-down comm MB", row(d2, func(p engineStats) float64 { return p.commMB })...)
	t.AddRow("1-D hybrid comm MB", row(hy, func(p engineStats) float64 { return p.commMB })...)
	ratio := make([]float64, len(nodesSweep))
	for i := range ratio {
		tdComm := points[td*len(nodesSweep)+i].commMB
		d2Comm := points[d2*len(nodesSweep)+i].commMB
		if d2Comm > 0 {
			ratio[i] = tdComm / d2Comm
		}
	}
	t.AddRow("top-down comm reduction (1D/2D)", ratio...)
	t.Notes = append(t.Notes,
		"related work (Buluc & Madduri): 2-D partitioning cut BFS communication ~3.5x over 1-D top-down",
		"the hybrid row shows why the paper optimizes the hybrid instead: it avoids most top-down traffic outright")
	return t, nil
}

// AblationAllgather compares the three allgather algorithms on the
// in_queue-sized payload over the full 16-node cluster — the
// Thakur-Gropp selection ablated. The BFS uses the library default; this
// shows what each choice would cost.
func AblationAllgather(s Spec) (*Table, error) {
	t, err := allgatherAblation(s)
	if err != nil {
		return nil, fmt.Errorf("ablation allgather: %w", err)
	}
	return t, nil
}

// AblationHybrid sweeps the hybrid switch thresholds (alpha) and
// compares the three algorithm modes — the design-choice ablation for
// the switching heuristic the paper inherits from Beamer et al.
func AblationHybrid(s Spec) (*Table, error) {
	const nodes = 4
	scale := s.scaleFor(nodes)
	t := &Table{
		Name:    "Abl. hybrid",
		Title:   fmt.Sprintf("Hybrid switch ablation (%d nodes, scale %d)", nodes, scale),
		Columns: []string{"TEPS", "td levels", "bu levels"},
	}
	var cells []cellRun
	var labels []string
	for _, mode := range []bfs.Mode{bfs.ModeTopDown, bfs.ModeBottomUp} {
		mode := mode
		labels = append(labels, fmt.Sprintf("pure %s", mode))
		cells = append(cells, cellRun{label: fmt.Sprintf("pure %s", mode), run: func(cs Spec) (*graph500.Result, error) {
			opts := bfs.DefaultOptions()
			opts.Mode = mode
			res, err := cs.run(nodes, machine.PPN8Bind, opts)
			if err != nil {
				return nil, fmt.Errorf("ablation %s: %w", mode, err)
			}
			return res, nil
		}})
	}
	for _, alpha := range []float64{2, 14, 30, 100} {
		alpha := alpha
		labels = append(labels, fmt.Sprintf("hybrid alpha=%g", alpha))
		cells = append(cells, cellRun{label: fmt.Sprintf("alpha=%g", alpha), run: func(cs Spec) (*graph500.Result, error) {
			opts := bfs.DefaultOptions()
			opts.Alpha = alpha
			res, err := cs.run(nodes, machine.PPN8Bind, opts)
			if err != nil {
				return nil, fmt.Errorf("ablation alpha=%g: %w", alpha, err)
			}
			return res, nil
		}})
	}
	results, err := s.collect("abl-hybrid", cells)
	if err != nil {
		return nil, err
	}
	for i, res := range results {
		t.AddRow(labels[i], res.HarmonicTEPS,
			float64(res.Breakdown.TDLevels), float64(res.Breakdown.BULevels))
	}
	t.Notes = append(t.Notes, "the hybrid beats both pure modes across the alpha range (Sec. II.A)")
	return t, nil
}
