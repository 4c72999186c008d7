package experiments

import (
	"fmt"

	"numabfs/internal/bfs"
	"numabfs/internal/bfs2d"
	"numabfs/internal/chassis"
	"numabfs/internal/engine"
	"numabfs/internal/graph500"
	"numabfs/internal/machine"
	"numabfs/internal/obs"
	"numabfs/internal/rmat"
	"numabfs/internal/stats"
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
	var cells []string
	for _, series := range []string{"1-D", "2-D"} {
		for _, nodes := range nodesSweep {
			cells = append(cells, fmt.Sprintf("%s/%dn", series, nodes))
		}
	}
	points, err := gather(s, cells, func(cs Spec, i int) (engineStats, error) {
		nodes := nodesSweep[i%len(nodesSweep)]
		if i < len(nodesSweep) {
			return cs.run1D(fmt.Sprintf("crossover 1-D nodes=%d", nodes), nodes, optsAt(bfs.OptCompressedAllgather), true)
		}
		return cs.run2D("crossover", nodes, bfs2d.ModeHybrid, true, true)
	})
	if err != nil {
		return nil, err
	}

	n := len(nodesSweep)
	teps1, teps2 := make([]float64, n), make([]float64, n)
	measRatio, modelRatio := make([]float64, n), make([]float64, n)
	meas2D, pick2D, agree := make([]float64, n), make([]float64, n), make([]float64, n)
	for i, nodes := range nodesSweep {
		p1, p2 := points[i], points[n+i]
		teps1[i], teps2[i] = p1.teps, p2.teps
		if p1.timeNs > 0 {
			measRatio[i] = p2.timeNs / p1.timeNs
		}
		ch := engine.Select(s.clusterConfig(nodes), s.scaleFor(nodes), nodes)
		modelRatio[i] = ch.Ratio()
		if p2.timeNs < p1.timeNs {
			meas2D[i] = 1
		}
		if ch.Use2D {
			pick2D[i] = 1
		}
		if ch.Use2D == (p2.timeNs < p1.timeNs) {
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

// rootEngine is what runEngine drives: either root-at-a-time engine
// (bfs.Runner, bfs2d.Runner), freshly built and not yet set up.
type rootEngine interface {
	AttachObs(*obs.Session)
	Setup()
	HasEdgeGlobal(v int64) bool
	RunRoot(root int64) chassis.Result
}

// engineStats is one cell of the engine-comparison tables, over the
// cell's roots: harmonic-mean TEPS, mean iteration time, and mean
// communication volume in MB.
type engineStats struct{ teps, timeNs, commMB float64 }

// run1D runs the 1-D engine on the cluster of nodes, its session named
// label; validate checks every tree.
func (cs Spec) run1D(label string, nodes int, opts bfs.Options, validate bool) (engineStats, error) {
	r, err := bfs.NewRunner(cs.clusterConfig(nodes), machine.PPN8Bind, rmat.Graph500(cs.scaleFor(nodes)), opts)
	if err != nil {
		return engineStats{}, err
	}
	var check func(int64) error
	if validate {
		check = func(root int64) error { return graph500.ValidateRun(r, root) }
	}
	return cs.runEngine(label, r, r.Params, check)
}

// run2D runs the 2-D engine on the default grid over the ranks of
// nodes, its session named after fig and the grid; validate checks
// every tree.
func (cs Spec) run2D(fig string, nodes int, mode bfs2d.Mode, compress, validate bool) (engineStats, error) {
	cfg := cs.clusterConfig(nodes)
	grid := bfs2d.DefaultGrid(nodes * cfg.SocketsPerNode)
	r, err := bfs2d.NewRunner(cfg, machine.PPN8Bind, grid, rmat.Graph500(cs.scaleFor(nodes)))
	if err != nil {
		return engineStats{}, err
	}
	r.Mode, r.Compress = mode, compress
	var check func(int64) error
	if validate {
		check = func(root int64) error { return graph500.ValidateRun2D(r, root) }
	}
	return cs.runEngine(fmt.Sprintf("%s 2-D %dx%d nodes=%d", fig, grid.R, grid.C, nodes), r, r.Params, check)
}

// runEngine runs one engine cell: the observability session (named
// label), Setup, cs.Roots roots drawn by the Graph500 rule, and one
// RunRoot per root — each tree checked by validate when non-nil.
func (cs Spec) runEngine(label string, r rootEngine, params rmat.Params, validate func(root int64) error) (engineStats, error) {
	if cs.Obs != nil {
		r.AttachObs(cs.Obs.NewSession(label))
	}
	r.Setup()
	roots, err := graph500.DrawRoots(params, cs.Roots, r.HasEdgeGlobal)
	if err != nil {
		return engineStats{}, fmt.Errorf("%s: %w", label, err)
	}
	var teps, times, comm []float64
	for _, root := range roots {
		res := r.RunRoot(root)
		if validate != nil {
			if err := validate(root); err != nil {
				return engineStats{}, fmt.Errorf("%s root=%d: %w", label, root, err)
			}
		}
		teps = append(teps, res.TEPS)
		times = append(times, res.TimeNs)
		comm = append(comm, float64(res.CommBytes))
	}
	return engineStats{stats.HarmonicMean(teps), stats.Mean(times), stats.Mean(comm) / (1 << 20)}, nil
}
