// Package experiments contains one driver per table and figure of the
// paper's evaluation (Section IV), each regenerating the corresponding
// rows or series on the simulated cluster. DESIGN.md carries the full
// experiment index; EXPERIMENTS.md records paper-vs-measured values.
//
// A figure is a registry entry (Figures: the -fig key and the driver),
// a list of cells and projectors. A cell is a label plus a complete
// graph500.Config short of the fields the Spec owns; Spec.collect runs
// the cells on the parallel runner, and projectors (TEPS, breakdown
// shares, ratios to a baseline row) turn the results into columns.
// Both engines run on that path: a cell with a Grid runs the 2-D engine
// (Ext2D, ExtCrossover). Drivers that measure something a
// graph500.Result does not carry — mpi directly (Fig4, Fig6,
// AblationAllgather, AblationShareDegree), the recorded gauges
// (Timeline) or the batched engine (ExtMSBFS, ExtMSBFSLoad) — stay
// plain functions over the same runner.
//
// The paper runs graphs of scale 28 (one node) to 32 (sixteen nodes,
// weak scaling). The drivers run the same sweeps at laptop scales on the
// proportionally scaled machine model (machine.Scaled), which preserves
// the working-set : cache ratios the results depend on; a Spec selects
// the scale and the number of BFS roots.
package experiments

import (
	"fmt"
	"math"
	"strings"

	"numabfs/internal/chassis"
	"numabfs/internal/fault"
	"numabfs/internal/machine"
	"numabfs/internal/obs"
	"numabfs/internal/trace"
)

// Spec sizes an experiment run.
type Spec struct {
	// BaseScale is the graph scale on one node; weak-scaling sweeps use
	// BaseScale + log2(nodes), mirroring the paper's 28..32.
	BaseScale int
	// Roots is the number of BFS iterations per configuration (the
	// Graph500 methodology uses 64).
	Roots int
	// Validate turns on per-root BFS tree validation.
	Validate bool
	// WeakNode keeps the testbed's one ill-performing node in 16-node
	// runs (the paper's results include it; Figs. 13-14 exclude 16-node
	// points because of it).
	WeakNode bool
	// Obs, when non-nil, records every benchmark configuration the
	// driver runs into its own labeled session (span timelines, comm
	// counters) for the -timeline export and the metrics report.
	Obs *obs.Recorder
	// SampleNs, when positive, enables the virtual-time gauge grid at
	// that bucket pitch on every recorded session (requires Obs).
	// bfsbench sets obs.DefaultSampleNs when -timeline is given.
	SampleNs float64
	// Faults, when non-nil, applies a deterministic fault plan
	// (internal/fault) to every graph500 cell the driver runs — the
	// bfsbench -fault flag. ExtFaults, ExtLoss and ExtAvailability build
	// their own plans and ignore it; Fig4, Fig6, AblationAllgather,
	// AblationShareDegree, ExtMSBFS and ExtMSBFSLoad drive mpi or the
	// batched engine directly and run fault-free.
	Faults *fault.Plan
	// Cache, when non-nil, shares constructed graphs across every cell
	// the driver runs: cells differing only in optimization level, knobs
	// or fault plan rebuild the identical R-MAT graph, so kernel 1 runs
	// once per (scale, ranks, layout) — the 1-D partition or a 2-D grid —
	// and later cells reuse it bit-identically.
	Cache *chassis.GraphCache
	// Parallel is the host-parallel width of the cell runner: how many
	// benchmark cells (variant × node-count × policy) run concurrently on
	// host cores. 0 or 1 is sequential. Any width produces bit-identical
	// tables, bench records and obs exports — cells are independent
	// simulations and the runner commits their effects in submission
	// order — so Parallel trades host wall-clock only.
	Parallel int
	// Ledger, when non-nil, receives one host wall-clock entry per cell
	// the drivers run (the bfsbench -cell-ledger output and the CI
	// host-budget gate's input).
	Ledger *Ledger
	// Batch is the MS-BFS lane count for the batched-traversal figures
	// (ExtMSBFS, ExtMSBFSLoad): how many roots share one traversal.
	// 0 means the full 64 lanes; values clamp to [1, 64]. The bfsbench
	// -batch flag feeds it.
	Batch int
	// FillTimeoutNs is the query-server admission timeout for
	// ExtMSBFSLoad: how long a query may wait for lane-mates before its
	// batch launches. 0 derives a default from the measured batch
	// duration. The bfsbench -fill-timeout-ns flag feeds it.
	FillTimeoutNs float64
}

// Default returns the spec of the bfsbench flag defaults.
func Default() Spec { return Spec{BaseScale: 16, Roots: 8} }

// PaperBaseScale is the paper's one-node graph scale; its weak-scaling
// sweep runs 28 (1 node) to 32 (16 nodes).
const PaperBaseScale = 28

// scaleFor returns the weak-scaling graph scale for a node count.
func (s Spec) scaleFor(nodes int) int {
	return s.BaseScale + int(math.Round(math.Log2(float64(nodes))))
}

// clusterConfig returns the scaled machine for a node count: the run
// stands in for the paper's experiment at scale 28 + log2(nodes).
func (s Spec) clusterConfig(nodes int) machine.Config {
	cfg := machine.Scaled(s.scaleFor(nodes), PaperBaseScale+s.scaleFor(nodes)-s.BaseScale)
	cfg.Nodes = nodes
	if !s.WeakNode || nodes < 16 {
		cfg.WeakNode = -1
	}
	return cfg
}

// Table is a rendered experiment result: labelled rows of numeric cells,
// in the shape of the paper's figure it reproduces. The struct marshals
// cleanly to JSON for downstream plotting.
type Table struct {
	Name    string   `json:"name"` // e.g. "Fig. 9"
	Title   string   `json:"title"`
	Columns []string `json:"columns"`
	Rows    []Row    `json:"rows"`
	Notes   []string `json:"notes,omitempty"`
	// Breakdowns carries the per-phase time breakdown of each
	// configuration for drivers that measure one (Fig. 11), keyed by row
	// label.
	Breakdowns map[string]trace.Breakdown `json:"breakdowns,omitempty"`
}

// Row is one labelled series of values.
type Row struct {
	Label  string    `json:"label"`
	Values []float64 `json:"values"`
}

// AddRow appends a row.
func (t *Table) AddRow(label string, values ...float64) {
	t.Rows = append(t.Rows, Row{Label: label, Values: values})
}

// String renders the table as aligned text.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", t.Name, t.Title)
	width := 14
	fmt.Fprintf(&b, "%-34s", "")
	for _, c := range t.Columns {
		fmt.Fprintf(&b, "%*s", width, c)
	}
	b.WriteByte('\n')
	for _, r := range t.Rows {
		fmt.Fprintf(&b, "%-34s", r.Label)
		for _, v := range r.Values {
			fmt.Fprintf(&b, "%*s", width, formatCell(v))
		}
		b.WriteByte('\n')
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "  note: %s\n", n)
	}
	return b.String()
}

func formatCell(v float64) string {
	switch {
	case v == 0:
		return "0"
	case math.Abs(v) >= 1e6 || math.Abs(v) < 1e-3:
		return fmt.Sprintf("%.3e", v)
	case math.Abs(v) >= 100:
		return fmt.Sprintf("%.1f", v)
	default:
		return fmt.Sprintf("%.3f", v)
	}
}
