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
// draws them. Roots panics when the graph has fewer than n such vertices,
// so a count that comes from outside the program is checked here first.
func DrawRoots(params rmat.Params, n int, hasEdge func(v int64) bool) ([]int64, error) {
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
	Machine  machine.Config
	Policy   machine.Policy
	Params   rmat.Params
	Opts     bfs.Options
	NumRoots int  // 0 means DefaultRoots
	Validate bool // validate every BFS tree against the spec

	// Obs, when non-nil, records the run into a new labeled session on
	// the recorder: per-rank span timelines, collective spans, and
	// communication counters. Tracing never changes results.
	Obs *obs.Recorder

	// SampleNs, when positive, additionally enables the session's
	// virtual-time gauge grid (internal/obs/sample.go) at that bucket
	// pitch: frontier size and density, link bytes in flight, retransmit
	// backlog, checkpoint debt, exposed collective waits. Requires Obs;
	// sampling never changes results either.
	SampleNs float64

	// Faults, when non-nil, is the deterministic perturbation plan
	// (internal/fault) applied to every BFS iteration: degraded links,
	// stragglers, jitter, and rank crashes survived through checkpoint
	// recovery. Construction (kernel 1) runs unperturbed.
	Faults *fault.Plan

	// Cache, when non-nil, reuses constructed graphs across runs with
	// identical (machine, policy, R-MAT params, dedup): kernel 1 is
	// skipped on a hit and the cached build's SetupNs reported, so
	// results are bit-identical either way. Experiment sweeps share one
	// cache across their cells (bfsbench).
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
	// Faults is the total number of rank crashes survived via checkpoint
	// recovery across all roots.
	Faults int
	// MTTRNs is the summed modelled repair time of those crashes
	// (detection delay plus re-own transfer; see bfs.RootResult.MTTRNs).
	MTTRNs float64
}

// prepare wires a freshly built 1-D runner (single-root or batched: both
// are a chassis Core over a Graph1D) under a benchmark Config and runs
// its setup: the observability session, labelled prefix + the cell's
// coordinates; kernel 1 through the graph cache; then the fault plan.
func prepare(cfg Config, prefix string, c *chassis.Core, g *chassis.Graph1D, setup func()) error {
	if cfg.Obs != nil {
		sess := cfg.Obs.NewSession(fmt.Sprintf("%s%s %s g=%d scale=%d nodes=%d", prefix,
			cfg.Policy, cfg.Opts.Opt, cfg.Opts.Granularity, cfg.Params.Scale, cfg.Machine.Nodes))
		if cfg.SampleNs > 0 {
			sess.EnableSampling(cfg.SampleNs)
		}
		c.AttachObs(sess)
	}
	key := chassis.GraphKey{
		Machine: cfg.Machine, Policy: cfg.Policy, Params: cfg.Params,
		Dedup: cfg.Opts.Dedup, Spares: cfg.Opts.SpareRanks,
	}
	if err := cfg.Cache.Setup(key, c, g, setup); err != nil {
		return err
	}
	if cfg.Faults != nil {
		return c.InjectFaults(*cfg.Faults)
	}
	return nil
}

// Run executes the benchmark.
func Run(cfg Config) (*Result, error) {
	if cfg.NumRoots == 0 {
		cfg.NumRoots = DefaultRoots
	}
	runner, err := bfs.NewRunner(cfg.Machine, cfg.Policy, cfg.Params, cfg.Opts)
	if err != nil {
		return nil, err
	}
	if err := prepare(cfg, "", &runner.Core, &runner.Graph1D, runner.Setup); err != nil {
		return nil, err
	}
	roots, err := DrawRoots(cfg.Params, cfg.NumRoots, runner.HasEdgeGlobal)
	if err != nil {
		return nil, err
	}

	res := &Result{Config: cfg, SetupNs: runner.SetupNs}
	teps := make([]float64, 0, len(roots))
	times := make([]float64, 0, len(roots))
	for _, root := range roots {
		rr := runner.RunRoot(root)
		if cfg.Validate {
			if err := ValidateRun(runner, root); err != nil {
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
