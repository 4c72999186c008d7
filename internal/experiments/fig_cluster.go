package experiments

import (
	"fmt"

	"numabfs/internal/bfs"
	"numabfs/internal/graph500"
	"numabfs/internal/machine"
)

// Fig9Granularities is the sweep behind the "+ Granularity" bar (the
// paper reports the best of all tested granularities).
var Fig9Granularities = []int64{64, 128, 256, 512}

// Fig9 reproduces the overview of all optimizations on 16 nodes. Paper
// shape: Original.ppn=8 = 1.53x Original.ppn=1; sharing in_queue +34.1%;
// share all +6.5%; parallel allgather +4.6%; best granularity on top;
// 2.44x overall.
func Fig9(s Spec) (*Table, error) {
	const nodes = 16
	var cells []cell
	for _, v := range append([]variant{ppn1}, ppn8Variants()...) {
		cells = append(cells, cell{v.label, s.config(nodes, v.policy, optsAt(v.opt))})
	}
	rungs := len(cells)
	// "+ Granularity": best of the sweep on top of Par allgather.
	cells = append(cells, s.knobs(nodes, bfs.OptParAllgather, granularities(Fig9Granularities))...)
	res, err := s.collect(cells)
	if err != nil {
		return nil, err
	}
	tp, rowLabels := project(res[:rungs], teps), labels(cells[:rungs])
	best, bestG := 0.0, int64(0)
	for i, g := range Fig9Granularities {
		if r := res[rungs+i]; r.HarmonicTEPS > best {
			best, bestG = r.HarmonicTEPS, g
		}
	}
	tp = append(tp, best)
	rowLabels = append(rowLabels, fmt.Sprintf("+ Granularity (best g=%d)", bestG))
	t := &Table{
		Name:    "Fig. 9",
		Title:   fmt.Sprintf("Overview of all optimizations (%d nodes, scale %d)", nodes, s.scaleFor(nodes)),
		Columns: []string{"TEPS", "vs ppn=1", "vs previous"},
		Notes:   []string{"paper: 1.53x, +34.1%, +6.5%, +4.6%, then best granularity; 2.44x overall"},
	}
	t.addColumns(rowLabels, tp, ratio(tp, tp[0]), stepwise(tp))
	return t, nil
}

// Fig12 reproduces the weak-scaling communication-cost measurement of
// the "Original" implementation: absolute time of each bottom-up
// communication phase for ppn=1 vs ppn=8, and the proportion of total
// time ppn=8 spends in bottom-up communication. Paper shape: the cost
// grows ~2x per doubling; ppn=8 costs ~2.34x ppn=1 at 8 nodes; the
// proportion grows from 12% to 54%.
func Fig12(s Spec) (*Table, error) {
	nodes := weakNodes[:4]
	policies := []variant{{"ppn1", machine.PPN1Interleave, bfs.OptOriginal}, {"ppn8", machine.PPN8Bind, bfs.OptOriginal}}
	cells := cross(nodes, policies, func(n int, v variant) cell {
		return cell{fmt.Sprintf("%s/%dn", v.label, n), s.config(n, v.policy, optsAt(v.opt))}
	})
	res, err := s.collect(cells)
	if err != nil {
		return nil, err
	}
	var ppn1s, ppn8s []*graph500.Result
	for _, pair := range rows(res, len(policies)) {
		ppn1s, ppn8s = append(ppn1s, pair[0]), append(ppn8s, pair[1])
	}
	t := &Table{Name: "Fig. 12", Title: "Bottom-up communication cost, weak scaling (Original)", Columns: nodeColumns(nodes),
		Notes: []string{"paper: ppn=8 comm = 2.34x ppn=1 at 8 nodes; proportion 12% -> 54%"}}
	t.AddRow("ppn=1.interleave comm phase (ms)", project(ppn1s, buCommMs)...)
	t.AddRow("ppn=8.bind comm phase (ms)", project(ppn8s, buCommMs)...)
	t.AddRow("ppn=8 bu-comm proportion", project(ppn8s, buShare)...)
	return t, nil
}

// weakScaling fills t with one row per variant: proj of each of its
// cells over the node sweep.
func (s Spec) weakScaling(t *Table, vs []variant, nodes []int, proj func(*graph500.Result) float64) (*Table, error) {
	res, err := s.collect(s.sweep(vs, nodes))
	if err != nil {
		return nil, err
	}
	t.Columns = nodeColumns(nodes)
	for i, row := range rows(res, len(nodes)) {
		t.AddRow(vs[i].label, project(row, proj)...)
	}
	return t, nil
}

// Fig13 reproduces the reduction of the average bottom-up communication
// phase by the communication optimizations across 1..16 nodes. Paper
// shape: 4.07x reduction at 8 nodes; the 16-node point is polluted by
// the weak node.
func Fig13(s Spec) (*Table, error) {
	return s.weakScaling(&Table{Name: "Fig. 13", Title: "Average bottom-up communication phase (ms), weak scaling",
		Notes: []string{"paper: all optimizations together cut 8-node comm 4.07x"}},
		ppn8Variants(), weakNodes, buCommMs)
}

// Fig14 reproduces the proportion of total time spent in bottom-up
// communication for each optimization level over 1..8 nodes. Paper
// shape: 54% (Original) -> 18% (all optimizations) at 8 nodes.
func Fig14(s Spec) (*Table, error) {
	return s.weakScaling(&Table{Name: "Fig. 14", Title: "Bottom-up communication proportion of total time",
		Notes: []string{"paper: 54% -> 18% at 8 nodes"}},
		ppn8Variants(), weakNodes[:4], buShare)
}

// Fig15 reproduces weak scalability in TEPS for each implementation from
// 1 to 16 nodes. Paper shape: the communication optimizations scale
// best; 8 -> 16 nodes is depressed by the weak node.
func Fig15(s Spec) (*Table, error) {
	return s.weakScaling(&Table{Name: "Fig. 15", Title: "Weak scalability (harmonic-mean TEPS)"},
		append([]variant{ppn1}, ppn8Variants()...), weakNodes, teps)
}

// Fig16Granularities is the granularity sweep of Fig. 16.
var Fig16Granularities = []int64{64, 128, 256, 512, 1024, 2048, 4096}

// Fig16 reproduces the summary-granularity sweep on 16 nodes over the
// "Par allgather" implementation. Paper shape: a peak at 256 (+10.2%
// over 64), decaying beyond as the summary loses zero bits.
func Fig16(s Spec) (*Table, error) {
	const nodes = 16
	cells := s.knobs(nodes, bfs.OptParAllgather, granularities(Fig16Granularities))
	res, err := s.collect(cells)
	if err != nil {
		return nil, err
	}
	t := &Table{Name: "Fig. 16", Columns: []string{"TEPS", "vs g=64"},
		Title: fmt.Sprintf("Summary bitmap granularity sweep (%d nodes, scale %d)", nodes, s.scaleFor(nodes)),
		Notes: []string{"paper: peak at g=256, +10.2% over g=64"}}
	tp := project(res, teps) // the sweep starts at g=64
	t.addColumns(labels(cells), tp, ratio(tp, tp[0]))
	return t, nil
}
