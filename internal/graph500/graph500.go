// Package graph500 implements the Graph500 evaluation methodology the
// paper adopts: generate an R-MAT graph at a given scale (kernel 0),
// build the distributed graph (kernel 1), run BFS from 64 random roots
// with at least one incident edge (kernel 2), validate each BFS tree
// against the specification, and report the harmonic mean of per-root
// TEPS.
package graph500

import (
	"errors"
	"fmt"

	"numabfs/internal/bfs"
	"numabfs/internal/bfs2d"
	"numabfs/internal/chassis"
	"numabfs/internal/fault"
	"numabfs/internal/machine"
	"numabfs/internal/obs"
	"numabfs/internal/rmat"
	"numabfs/internal/stats"
	"numabfs/internal/trace"
)

// DefaultRoots is the number of BFS iterations the spec prescribes.
const DefaultRoots = 64

// ErrTooManyRoots is the error DrawRoots wraps. The CLIs exit 2 on it:
// it is a bad -roots or -batch value, not a failed run.
var ErrTooManyRoots = errors.New("more roots requested than vertices with an edge")

// DrawRoots is the root rule behind every -roots and -batch flag: n
// distinct vertices with at least one incident edge, as params.Roots
// draws them. Roots panics when n is negative or the graph has fewer
// than n such vertices, so a count that comes from outside the program
// is checked here first; a count below 1 is an error too.
func DrawRoots(params rmat.Params, n int, hasEdge func(v int64) bool) ([]int64, error) {
	if n < 1 {
		return nil, fmt.Errorf("root count %d, want at least 1", n)
	}
	rooted := 0
	for v := int64(0); v < params.NumVertices() && rooted < n; v++ {
		if hasEdge(v) {
			rooted++
		}
	}
	if rooted < n {
		return nil, fmt.Errorf("%w: want %d, the scale-%d graph has %d", ErrTooManyRoots, n, params.Scale, rooted)
	}
	return params.Roots(n, hasEdge), nil
}

// Config describes one benchmark run.
type Config struct {
	Machine machine.Config
	Policy  machine.Policy
	Params  rmat.Params
	// Opts configures the 1-D engine. The 2-D engine reads three of its
	// fields: Mode (its direction policy), Opt (it compresses its
	// collectives from OptCompressedAllgather up) and SpareRanks (spare
	// ranks per node, as for every engine); Run rejects a 2-D config
	// whose other fields differ from bfs.DefaultOptions().
	Opts     bfs.Options
	NumRoots int  // 0 means DefaultRoots
	Validate bool // validate every BFS tree against the spec

	// Grid, when non-zero, runs the 2-D engine (internal/bfs2d) on that
	// processor grid instead of the 1-D engine; it must cover the ranks
	// the machine and policy place, less SpareRanks on every node.
	Grid bfs2d.Grid

	// Obs, when non-nil, records the run into a new labeled session on
	// the recorder: per-rank span timelines, collective spans, and
	// communication counters. Tracing never changes results.
	Obs *obs.Recorder

	// SampleNs, when positive, additionally enables the session's
	// virtual-time gauge grid (internal/obs/sample.go) at that bucket
	// pitch: frontier size and density, link bytes in flight, retransmit
	// backlog, exposed collective waits, live ranks. Requires Obs;
	// sampling never changes results either.
	SampleNs float64

	// Faults, when non-nil, is the deterministic perturbation plan
	// (internal/fault) applied to every traversal of any engine, batched
	// ones included: degraded links, stragglers, jitter, and rank
	// crashes, survived through a rerun from the roots (after a spare
	// promotion when Opts.SpareRanks parked one). Construction (kernel 1)
	// runs unperturbed.
	Faults *fault.Plan

	// Cache, when non-nil, reuses constructed graphs across runs with
	// identical (machine, policy, R-MAT params, dedup, spares, grid):
	// kernel 1 is skipped on a hit and the cached build's SetupNs
	// reported, so results are bit-identical either way. Experiment
	// sweeps share one cache across their cells (bfsbench). A run with
	// Obs set bypasses it, so every recorded session carries its own
	// kernel-1 spans.
	Cache *chassis.GraphCache
}

// Result aggregates a benchmark run.
type Result struct {
	Config       Config
	HarmonicTEPS float64
	MeanTEPS     float64
	MinTEPS      float64
	MaxTEPS      float64
	MeanTimeNs   float64
	SetupNs      float64
	PerRoot      []bfs.RootResult
	// Breakdown is the per-phase time averaged over roots and ranks —
	// the quantity Figs. 11-14 report.
	Breakdown trace.Breakdown
	// Faults is the total number of rank crashes survived across all
	// roots.
	Faults int
	// MTTRNs is the summed modelled repair time of those crashes
	// (detection delay plus re-own transfer; see bfs.RootResult.MTTRNs).
	MTTRNs float64
}

// prepare wires a freshly built runner (any engine: each is a chassis
// Core over a Graph) under a benchmark Config and runs its setup: the
// observability session, labelled prefix + the cell's coordinates —
// the 2-D grid and a non-hybrid mode named, so cells that differ only
// there stay apart; kernel 1 through the graph cache; then the fault
// plan. A recorded run builds its own kernel 1: only a build records
// the construction spans and the end-of-setup mark, so a cache hit
// would make the session depend on which cell built first.
func prepare(cfg Config, prefix string, c *chassis.Core, g *chassis.Graph, setup func()) error {
	cache := cfg.Cache
	if cfg.Obs != nil {
		cache = nil
		if cfg.Grid != (bfs2d.Grid{}) {
			prefix += fmt.Sprintf("2-D %dx%d ", cfg.Grid.R, cfg.Grid.C)
		}
		if cfg.Opts.Mode != bfs.ModeHybrid {
			prefix += cfg.Opts.Mode.String() + " "
		}
		sess := cfg.Obs.NewSession(fmt.Sprintf("%s%s %s g=%d scale=%d nodes=%d", prefix,
			cfg.Policy, cfg.Opts.Opt, cfg.Opts.Granularity, cfg.Params.Scale, cfg.Machine.Nodes))
		if cfg.SampleNs > 0 {
			sess.EnableSampling(cfg.SampleNs)
		}
		c.AttachObs(sess)
	}
	key := chassis.GraphKey{
		Machine: cfg.Machine, Policy: cfg.Policy, Params: cfg.Params,
		Dedup: cfg.Opts.Dedup, Spares: cfg.Opts.SpareRanks, Grid: cfg.Grid,
	}
	if err := cache.Setup(key, c, g, setup); err != nil {
		return err
	}
	if cfg.Faults != nil {
		return c.InjectFaults(*cfg.Faults)
	}
	return nil
}

// engine is one set-up runner as Run drives it: root selection, one
// traversal per root, the tree validator, and the construction time.
type engine struct {
	hasEdge  func(v int64) bool
	runRoot  func(root int64) chassis.Result
	validate func(root int64) error
	setupNs  float64
}

// newEngine builds the runner cfg names — the 1-D engine, or the 2-D
// engine on cfg.Grid — and prepares it.
func newEngine(cfg Config) (engine, error) {
	if cfg.Grid == (bfs2d.Grid{}) {
		r, err := bfs.NewRunner(cfg.Machine, cfg.Policy, cfg.Params, cfg.Opts)
		if err != nil {
			return engine{}, err
		}
		err = prepare(cfg, "", &r.Core, &r.Graph, r.Setup)
		return engine{r.HasEdgeGlobal, r.RunRoot, func(root int64) error { return ValidateRun(r, root) }, r.SetupNs}, err
	}
	read := bfs.DefaultOptions()
	read.Mode, read.Opt, read.SpareRanks = cfg.Opts.Mode, cfg.Opts.Opt, cfg.Opts.SpareRanks
	if cfg.Opts != read {
		return engine{}, errors.New("graph500: the 2-D engine reads only Opts.Mode, Opt and SpareRanks; the others must keep their defaults")
	}
	r, err := bfs2d.NewRunner(cfg.Machine, cfg.Policy, cfg.Grid, cfg.Params, cfg.Opts.SpareRanks)
	if err != nil {
		return engine{}, err
	}
	var ok bool
	if r.Mode, ok = modes2D[cfg.Opts.Mode]; !ok {
		return engine{}, fmt.Errorf("graph500: the 2-D engine has no %s mode", cfg.Opts.Mode)
	}
	if err := r.CheckMode(); err != nil {
		return engine{}, err
	}
	r.Compress = cfg.Opts.Opt >= bfs.OptCompressedAllgather
	err = prepare(cfg, "", &r.Core, &r.Graph, r.Setup)
	return engine{r.HasEdgeGlobal, r.RunRoot, func(root int64) error { return ValidateRun2D(r, root) }, r.SetupNs}, err
}

// modes2D maps the 1-D direction policies onto the 2-D engine's.
var modes2D = map[bfs.Mode]bfs2d.Mode{
	bfs.ModeHybrid: bfs2d.ModeHybrid, bfs.ModeTopDown: bfs2d.ModeTopDown, bfs.ModeBottomUp: bfs2d.ModeBottomUp,
}

// Run executes the benchmark.
func Run(cfg Config) (*Result, error) {
	if cfg.NumRoots == 0 {
		cfg.NumRoots = DefaultRoots
	}
	e, err := newEngine(cfg)
	if err != nil {
		return nil, err
	}
	roots, err := DrawRoots(cfg.Params, cfg.NumRoots, e.hasEdge)
	if err != nil {
		return nil, err
	}

	res := &Result{Config: cfg, SetupNs: e.setupNs}
	teps := make([]float64, 0, len(roots))
	times := make([]float64, 0, len(roots))
	for _, root := range roots {
		rr := e.runRoot(root)
		if cfg.Validate {
			if err := e.validate(root); err != nil {
				return nil, fmt.Errorf("graph500: root %d: %w", root, err)
			}
		}
		res.PerRoot = append(res.PerRoot, rr)
		res.Faults += len(rr.Faults)
		res.MTTRNs += rr.MTTRNs
		teps = append(teps, rr.TEPS)
		times = append(times, rr.TimeNs)
		res.Breakdown.Merge(rr.Breakdown)
	}
	res.HarmonicTEPS = stats.HarmonicMean(teps)
	res.MeanTEPS = stats.Mean(teps)
	res.MinTEPS = stats.Min(teps)
	res.MaxTEPS = stats.Max(teps)
	res.MeanTimeNs = stats.Mean(times)
	res.Breakdown.Scale(1 / float64(len(roots)))
	res.Breakdown.TDLevels /= len(roots)
	res.Breakdown.BULevels /= len(roots)
	res.Breakdown.BUCommCount /= len(roots)
	return res, nil
}

// String renders the headline numbers.
func (r *Result) String() string {
	return fmt.Sprintf("scale=%d nodes=%d %s %s g=%d: harmonic TEPS=%.3e (mean %.3e) mean time=%.2fms",
		r.Config.Params.Scale, r.Config.Machine.Nodes, r.Config.Policy,
		r.Config.Opts.Opt, r.Config.Opts.Granularity,
		r.HarmonicTEPS, r.MeanTEPS, r.MeanTimeNs/1e6)
}
