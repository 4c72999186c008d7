package experiments

import (
	"fmt"

	"numabfs/internal/bfs"
	"numabfs/internal/graph500"
	"numabfs/internal/machine"
	"numabfs/internal/rmat"
	"numabfs/internal/trace"
)

// This file makes a graph500 figure a value: a registry entry names it,
// a list of cells declares its benchmark configurations, and projectors
// turn the results into the table's columns.

// Figure is one registry entry: the bfsbench -fig key and its driver.
type Figure struct {
	Key  string
	draw func(Spec) (*Table, error)
}

// Figures is every driver in display order.
var Figures = []Figure{
	{"3", Fig3}, {"4", Fig4}, {"6", Fig6}, {"9", Fig9}, {"10", Fig10},
	{"11", Fig11}, {"12", Fig12}, {"13", Fig13}, {"14", Fig14},
	{"15", Fig15}, {"16", Fig16},
	{"algcmp", AlgorithmComparison},
	{"levels", LevelProfile},
	{"2d", Ext2D},
	{"crossover", ExtCrossover},
	{"compression", ExtCompression},
	{"faults", ExtFaults},
	{"availability", ExtAvailability},
	{"loss", ExtLoss},
	{"overlap", ExtOverlap},
	{"msbfs", ExtMSBFS},
	{"msbfs-load", ExtMSBFSLoad},
	{"timeline", Timeline},
	{"abl-allgather", AblationAllgather},
	{"abl-compression", AblationCompression},
	{"abl-hybrid", AblationHybrid},
	{"abl-overlap", AblationOverlap},
	{"abl-sharedegree", AblationShareDegree},
}

// Run draws the figure. Its cells enter s.Ledger under f.Key, and its
// error names f.Key.
func (f Figure) Run(s Spec) (*Table, error) {
	book := s.Ledger
	if book != nil {
		s.Ledger = NewLedger()
	}
	t, err := f.draw(s)
	if book != nil {
		for _, c := range s.Ledger.Cells() {
			c.Fig = f.Key
			book.add(c)
		}
	}
	if err != nil {
		return nil, fmt.Errorf("%s %w", f.Key, err)
	}
	return t, nil
}

// cell is one graph500 benchmark of a figure: its ledger label and its
// configuration without the Spec-owned fields (roots, recorder,
// sampling, cache), which collect fills in. Validation is Spec-owned
// too, unless the cell forces it on.
type cell struct {
	label string
	cfg   graph500.Config
}

// config is the configuration of one weak-scaling point: the scaled
// cluster at nodes, the Graph500 graph of its scale, opts, and the
// Spec's fault plan.
func (s Spec) config(nodes int, policy machine.Policy, opts bfs.Options) graph500.Config {
	return graph500.Config{
		Machine: s.clusterConfig(nodes),
		Policy:  policy,
		Params:  rmat.Graph500(s.scaleFor(nodes)),
		Opts:    opts,
		Faults:  s.Faults,
	}
}

// own fills the Spec-owned fields of a cell's configuration.
func (s Spec) own(cfg graph500.Config) graph500.Config {
	cfg.NumRoots, cfg.Obs, cfg.SampleNs, cfg.Cache = s.Roots, s.Obs, s.SampleNs, s.Cache
	cfg.Validate = cfg.Validate || s.Validate
	return cfg
}

// collect runs the cells on the parallel runner and returns their
// results in cell order.
func (s Spec) collect(cells []cell) ([]*graph500.Result, error) {
	return gather(s, labels(cells), func(cs Spec, i int) (*graph500.Result, error) {
		return graph500.Run(cs.own(cells[i].cfg))
	})
}

// labels returns the cells' labels.
func labels(cells []cell) []string {
	out := make([]string, len(cells))
	for i, c := range cells {
		out[i] = c.label
	}
	return out
}

// Axes.

// variant is one rung of the optimization ladder: a label, a policy and
// a cumulative optimization level.
type variant struct {
	label  string
	policy machine.Policy
	opt    bfs.Opt
}

// optsAt is the default options at optimization level opt.
func optsAt(opt bfs.Opt) bfs.Options {
	o := bfs.DefaultOptions()
	o.Opt = opt
	return o
}

// ppn1 is the paper's baseline: one rank per node, memory interleaved.
var ppn1 = variant{"Original.ppn=1", machine.PPN1Interleave, bfs.OptOriginal}

// compressedVariants is the cumulative ladder at the paper's ppn=8 bound
// placement, up to the compressed allgather.
func compressedVariants() []variant {
	return []variant{
		{"Original.ppn=8", machine.PPN8Bind, bfs.OptOriginal},
		{"+ Share in_queue", machine.PPN8Bind, bfs.OptShareInQueue},
		{"+ Share all", machine.PPN8Bind, bfs.OptShareAll},
		{"+ Par allgather", machine.PPN8Bind, bfs.OptParAllgather},
		{"+ Compressed allgather", machine.PPN8Bind, bfs.OptCompressedAllgather},
	}
}

// Rungs of compressedVariants that figures single out.
const (
	parRung  = 3 // "+ Par allgather"
	compRung = 4 // "+ Compressed allgather"
)

// ppn8Variants is the paper's own ladder (Figs. 9, 13-15): the rungs
// below the compressed allgather.
func ppn8Variants() []variant { return compressedVariants()[:compRung:compRung] }

// weakNodes is the weak-scaling node sweep (the paper's scale 28..32).
var weakNodes = []int{1, 2, 4, 8, 16}

// nodeColumns heads one column per node count.
func nodeColumns(nodes []int) []string {
	cols := make([]string, len(nodes))
	for i, n := range nodes {
		cols[i] = fmt.Sprintf("%d nodes", n)
		if n == 1 {
			cols[i] = "1 node"
		}
	}
	return cols
}

// knob is one option setting of a fixed-cluster sweep.
type knob struct {
	label string
	set   func(*bfs.Options)
}

// opts is the default options at the base level, with the knob set.
func (k knob) opts(base bfs.Opt) bfs.Options {
	o := optsAt(base)
	k.set(&o)
	return o
}

// knobs declares one cell per knob on nodes at ppn=8, each setting its
// knob on top of the base optimization level.
func (s Spec) knobs(nodes int, base bfs.Opt, ks []knob) []cell {
	cells := make([]cell, len(ks))
	for i, k := range ks {
		cells[i] = cell{k.label, s.config(nodes, machine.PPN8Bind, k.opts(base))}
	}
	return cells
}

// granularities is the summary-granularity axis (Figs. 9 and 16).
func granularities(gs []int64) []knob {
	ks := make([]knob, len(gs))
	for i, g := range gs {
		ks[i] = knob{fmt.Sprintf("g=%d", g), func(o *bfs.Options) { o.Granularity = g }}
	}
	return ks
}

// cross is the as × bs product in as-major order, the order every
// two-axis figure declares its cells in.
func cross[A, B any](as []A, bs []B, f func(A, B) cell) []cell {
	cells := make([]cell, 0, len(as)*len(bs))
	for _, a := range as {
		for _, b := range bs {
			cells = append(cells, f(a, b))
		}
	}
	return cells
}

// sweep is the variants × nodes product, labelled "<variant>/<n>n".
func (s Spec) sweep(vs []variant, nodes []int) []cell {
	return cross(vs, nodes, func(v variant, n int) cell {
		return cell{fmt.Sprintf("%s/%dn", v.label, n), s.config(n, v.policy, optsAt(v.opt))}
	})
}

// Reshape and projectors.

// rows reshapes the results of a product into rows of n.
func rows[T any](xs []T, n int) [][]T {
	var out [][]T
	for ; len(xs) > 0; xs = xs[n:] {
		out = append(out, xs[:n])
	}
	return out
}

// project maps every result through f.
func project[T any](xs []T, f func(T) float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = f(x)
	}
	return out
}

func teps(r *graph500.Result) float64      { return r.HarmonicTEPS }
func timeMs(r *graph500.Result) float64    { return r.MeanTimeNs / 1e6 }
func buCommMs(r *graph500.Result) float64  { return r.Breakdown.AvgBUCommNs() / 1e6 }
func buShare(r *graph500.Result) float64   { return r.Breakdown.Proportion(trace.BUComm) }
func hiddenMs(r *graph500.Result) float64  { return r.Breakdown.Ns[trace.Overlap] / 1e6 }
func exposedMs(r *graph500.Result) float64 { return r.Breakdown.OverlapExposedNs / 1e6 }

// overlapEff is the share of the pipelined collective's transfer time
// hidden behind computation.
func overlapEff(r *graph500.Result) float64 {
	hidden, exposed := r.Breakdown.Ns[trace.Overlap], r.Breakdown.OverlapExposedNs
	if tot := hidden + exposed; tot > 0 {
		return hidden / tot
	}
	return 0
}

// ratio divides every value by base.
func ratio(xs []float64, base float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x / base
	}
	return out
}

// stepwise is each value over the previous one (1 for the first).
func stepwise(xs []float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = 1
		if i > 0 {
			out[i] = x / xs[i-1]
		}
	}
	return out
}

// retained is each result's TEPS relative to the first of its row.
func retained(row []*graph500.Result) []float64 {
	return ratio(project(row, teps), row[0].HarmonicTEPS)
}

// addColumns adds one row per label, taking row i's values from the
// i-th entry of every column.
func (t *Table) addColumns(labels []string, cols ...[]float64) {
	for i, l := range labels {
		vals := make([]float64, len(cols))
		for j, c := range cols {
			vals[j] = c[i]
		}
		t.AddRow(l, vals...)
	}
}
