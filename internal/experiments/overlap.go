package experiments

import (
	"fmt"
	"slices"

	"numabfs/internal/bfs"
	"numabfs/internal/machine"
)

// overlapSegCounts is ExtOverlap's pipeline-depth sweep: how many chunks
// each rank's in_queue segment is split into. Depth 1 degenerates to one
// transfer per ring step (overlap only across steps); deeper pipelines
// hide more transfer time behind the per-chunk decode + summary rebuild
// until the α (latency) term of the extra messages eats the gain.
var overlapSegCounts = []int{1, 2, 4, 8}

// overlapDefaultSegs mirrors the engine's default pipeline depth
// (Options.OverlapSegments = 0); the attribution rows report this
// configuration.
const overlapDefaultSegs = 2

// ExtOverlap evaluates the pipelined bottom-up allgather
// (OptOverlapAllgather) as a weak-scaling sweep over 1..16 nodes crossed
// with a pipeline-depth sweep: TEPS for the compressed baseline and for
// every segment count, then — for the engine's default depth — the
// bottom-up communication proportion of both levels (the Figs. 12/14
// curve, which the overlap flattens), the trace-attributed hidden and
// exposed communication, the per-run overlap efficiency, and the
// end-to-end speedup. Every cell runs with full Graph500 tree validation
// as the oracle: the pipeline reorders transfers and interleaves the
// summary rebuild with them, so a cell only scores if its BFS tree is
// provably correct.
func ExtOverlap(s Spec) (*Table, error) {
	// Cells: the compressed baseline across the sweep, then each pipeline
	// depth across the sweep.
	ks := []knob{{"compressed", func(o *bfs.Options) { o.Opt = bfs.OptCompressedAllgather }}}
	for _, segs := range overlapSegCounts {
		ks = append(ks, knob{fmt.Sprintf("segs=%d", segs), func(o *bfs.Options) { o.OverlapSegments = segs }})
	}
	cells := cross(ks, weakNodes, func(k knob, n int) cell {
		cfg := s.config(n, machine.PPN8Bind, k.opts(bfs.OptOverlapAllgather))
		cfg.Validate = true // Graph500 tree validation is the oracle for every cell
		return cell{fmt.Sprintf("%s/%dn", k.label, n), cfg}
	})
	res, err := s.collect(cells)
	if err != nil {
		return nil, err
	}
	grid := rows(res, len(weakNodes))
	comp, ov := grid[0], grid[1+slices.Index(overlapSegCounts, overlapDefaultSegs)]

	t := &Table{
		Name:    "Ext. overlap",
		Title:   "Pipelined bottom-up allgather: overlap vs compressed, weak scaling (validated roots)",
		Columns: nodeColumns(weakNodes),
		Notes: []string{
			"every cell validates each BFS tree against the Graph500 spec — the pipeline's reordered transfers never corrupt a traversal",
			"the bu-comm proportion rows are the Figs. 12/14 curve: overlap flattens it by hiding transfers behind the per-chunk decode and summary rebuild",
			"hidden vs exposed is the trace's attribution of the pipelined collective's transfer time; efficiency = hidden / (hidden + exposed)",
			"speedup > 1 at >= 4 nodes is the tentpole acceptance: the overlap strictly reduces total virtual time where communication matters",
		},
	}
	t.AddRow("+ Compressed allgather TEPS", project(comp, teps)...)
	for i, segs := range overlapSegCounts {
		t.AddRow(fmt.Sprintf("+ Overlap segs=%d TEPS", segs), project(grid[1+i], teps)...)
	}
	t.AddRow("Compressed bu-comm proportion", project(comp, buShare)...)
	t.AddRow("Overlap bu-comm proportion", project(ov, buShare)...)
	t.AddRow("Overlap hidden comm (ms)", project(ov, hiddenMs)...)
	t.AddRow("Overlap exposed comm (ms)", project(ov, exposedMs)...)
	t.AddRow("Overlap efficiency", project(ov, overlapEff)...)
	speedup := make([]float64, len(comp))
	for i := range comp {
		speedup[i] = comp[i].MeanTimeNs / ov[i].MeanTimeNs
	}
	t.AddRow("Speedup vs compressed", speedup...)
	return t, nil
}

// AblationOverlap ablates the pipeline depth on a fixed 4-node cluster:
// the compressed baseline against the overlapped level at pinned segment
// counts. Deeper pipelines expose less transfer time per chunk but pay
// the α latency term once per extra message — the sweep locates the
// knee; every row traverses the identical graph (the depth is a pure
// performance knob).
func AblationOverlap(s Spec) (*Table, error) {
	const nodes = 4
	ks := []knob{{"compressed (no overlap)", func(o *bfs.Options) { o.Opt = bfs.OptCompressedAllgather }}}
	for _, segs := range []int{1, 2, 4, 8, 16, 64} {
		label := fmt.Sprintf("overlap segs=%d", segs)
		if segs == overlapDefaultSegs {
			label += " (default)"
		}
		ks = append(ks, knob{label, func(o *bfs.Options) { o.OverlapSegments = segs }})
	}
	cells := s.knobs(nodes, bfs.OptOverlapAllgather, ks)
	res, err := s.collect(cells)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Name:    "Abl. overlap",
		Title:   fmt.Sprintf("Pipeline-depth ablation of the overlapped allgather (%d nodes, scale %d)", nodes, s.scaleFor(nodes)),
		Columns: []string{"TEPS", "time ms", "bu-comm ms", "hidden ms", "exposed ms", "efficiency"},
		Notes: []string{
			"every row computes the identical parent trees — pipeline depth is a pure performance knob",
			"segment counts are clamped per collective to the smallest member segment, so very deep settings converge",
		},
	}
	t.addColumns(labels(cells), project(res, teps), project(res, timeMs), project(res, buCommMs),
		project(res, hiddenMs), project(res, exposedMs), project(res, overlapEff))
	return t, nil
}
