// Package numabfs is a reproduction, as a library, of "Evaluation and
// Optimization of Breadth-First Search on NUMA Cluster" (Cui et al.,
// CLUSTER 2012): the hybrid top-down / bottom-up BFS for distributed
// memory, run over an execution-driven simulator of the paper's
// 16-node, eight-socket-per-node NUMA cluster, with every optimization
// the paper evaluates:
//
//   - process-per-socket placement with socket binding (vs. one
//     interleaved process per node);
//   - node-shared in_queue / out_queue bitmaps that eliminate the
//     intra-node steps of leader-based allgather;
//   - the parallelized (per-socket subgroup) inter-node allgather;
//   - tunable in_queue_summary granularity;
//
// plus, as an extension, adaptive frontier compression of the
// bottom-up allgather (dense/sparse/RLE wire formats chosen per
// segment — OptCompressedAllgather).
//
// The algorithms run for real on real R-MAT graphs — results are
// validated against the Graph500 specification — while time is virtual:
// each simulated MPI rank carries a clock advanced by a calibrated
// machine model (memory locality, caches, QPI, InfiniBand). Reported
// TEPS are modelled, deterministic, and independent of the host machine.
//
// Quick start:
//
//	cfg := numabfs.TableI()                   // the paper's cluster
//	res, err := numabfs.Run(numabfs.Benchmark{
//		Machine: cfg,
//		Policy:  numabfs.PPN8Bind,
//		Params:  numabfs.Graph500Params(18),
//		Opts:    numabfs.DefaultOptions(),
//	})
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for the
// paper-vs-measured record of every table and figure.
package numabfs

import (
	"numabfs/internal/bfs"
	"numabfs/internal/bfs2d"
	"numabfs/internal/engine"
	"numabfs/internal/graph500"
	"numabfs/internal/machine"
	"numabfs/internal/obs"
	"numabfs/internal/rmat"
)

// ClusterConfig describes the modelled hardware (Table I of the paper).
type ClusterConfig = machine.Config

// TableI returns the paper's testbed: 16 nodes x 8 Xeon X7550 sockets,
// 1,024 cores, two 40 Gb/s InfiniBand ports per node.
func TableI() ClusterConfig { return machine.TableI() }

// ScaledCluster returns TableI adjusted so a graph of runScale stands in
// for the paper's experiment at paperScale (working-set : cache ratios
// are preserved; see machine.Scaled).
func ScaledCluster(runScale, paperScale int) ClusterConfig {
	return machine.Scaled(runScale, paperScale)
}

// Policy is a process placement policy (Fig. 10 of the paper).
type Policy = machine.Policy

// Placement policies.
const (
	// PPN1NoFlag runs one rank per node with default allocation.
	PPN1NoFlag = machine.PPN1NoFlag
	// PPN1Interleave runs one rank per node with memory interleaved
	// across sockets (numactl --interleave=all).
	PPN1Interleave = machine.PPN1Interleave
	// PPN8NoFlag runs one rank per socket without binding.
	PPN8NoFlag = machine.PPN8NoFlag
	// PPN8Bind runs one bound rank per socket — the paper's
	// recommendation ("-bind-to-socket -bysocket").
	PPN8Bind = machine.PPN8Bind
)

// GraphParams describes an R-MAT graph instance.
type GraphParams = rmat.Params

// Graph500Params returns the standard Graph500 R-MAT parameters
// (a,b,c,d = 0.57, 0.19, 0.19, 0.05; edgefactor 16) at the given scale.
func Graph500Params(scale int) GraphParams { return rmat.Graph500(scale) }

// Options configures the BFS algorithm and its optimization level.
type Options = bfs.Options

// DefaultOptions returns the reference-code defaults (hybrid algorithm,
// granularity 64, no sharing optimizations).
func DefaultOptions() Options { return bfs.DefaultOptions() }

// OptLevel is an optimization level of the paper's Fig. 9.
type OptLevel = bfs.Opt

// AlgorithmMode selects the traversal algorithm.
type AlgorithmMode = bfs.Mode

// Optimization levels (cumulative, in the order of the paper's Fig. 9).
const (
	// OptOriginal is the unmodified hybrid BFS.
	OptOriginal = bfs.OptOriginal
	// OptShareInQueue shares in_queue per node (no broadcast step).
	OptShareInQueue = bfs.OptShareInQueue
	// OptShareAll also shares out_queue and the summaries (no gather).
	OptShareAll = bfs.OptShareAll
	// OptParAllgather adds the per-socket-subgroup parallel allgather.
	OptParAllgather = bfs.OptParAllgather
	// OptCompressedAllgather adds adaptive frontier compression
	// (dense/sparse/RLE, chosen per segment) to the bottom-up allgather.
	OptCompressedAllgather = bfs.OptCompressedAllgather
	// OptOverlapAllgather pipelines the compressed allgather with the
	// frontier scan: chunks decode and scan while later chunks are still
	// in flight (Options.OverlapSegments sets the pipeline depth).
	OptOverlapAllgather = bfs.OptOverlapAllgather
)

// Traversal algorithm modes.
const (
	// ModeHybrid switches between top-down and bottom-up (the paper's
	// algorithm, after Beamer et al.).
	ModeHybrid = bfs.ModeHybrid
	// ModeTopDown always explores from the frontier.
	ModeTopDown = bfs.ModeTopDown
	// ModeBottomUp always scans unvisited vertices.
	ModeBottomUp = bfs.ModeBottomUp
)

// Benchmark describes one Graph500-methodology run: 64 BFS roots (or
// NumRoots), harmonic-mean TEPS, optional tree validation.
type Benchmark = graph500.Config

// Result is the outcome of a benchmark run.
type Result = graph500.Result

// ErrTooManyRoots is what Run wraps when NumRoots exceeds the number of
// vertices that have an edge.
var ErrTooManyRoots = graph500.ErrTooManyRoots

// Run executes a benchmark: builds the distributed graph (kernel 1),
// runs BFS from each root (kernel 2), validates if requested, and
// aggregates TEPS and the per-phase breakdown.
func Run(b Benchmark) (*Result, error) { return graph500.Run(b) }

// Runner gives root-by-root control over a BFS job; use it when the
// aggregate Run harness is too coarse (e.g. to inspect parent arrays).
type Runner = bfs.Runner

// NewRunner builds a runner over the given machine, placement policy,
// graph and options. Call Setup once, then RunRoot per source vertex.
func NewRunner(cfg ClusterConfig, policy Policy, params GraphParams, opts Options) (*Runner, error) {
	return bfs.NewRunner(cfg, policy, params, opts)
}

// Validate checks the BFS tree a runner's last RunRoot left behind
// against the Graph500 specification.
func Validate(r *Runner, root int64) error { return graph500.ValidateRun(r, root) }

// Recorder collects observability sessions: per-rank span timelines over
// virtual time, collective spans, and communication counters. Attach one
// to a Benchmark via its Obs field (or to a Runner with AttachObs), then
// write the timeline with WriteTimelineFile, or take a snapshot with
// Dump and read it: Report for the metrics report, WriteChromeTrace,
// WriteHTMLReport and WritePromText for the renderers that obsdiff also
// runs on a timeline file. Recording never changes benchmark results.
type Recorder = obs.Recorder

// NewRecorder returns an empty Recorder.
func NewRecorder() *Recorder { return obs.NewRecorder() }

// Grid is a 2-D processor grid (rows x columns).
type Grid = bfs2d.Grid

// Runner2D is the two-dimensional partitioned BFS engine (Buluç &
// Madduri), the extension the paper's related work describes as
// orthogonal to its NUMA optimizations.
type Runner2D = bfs2d.Runner

// DefaultGrid splits a rank count into the most square power-of-two
// processor grid.
func DefaultGrid(ranks int) Grid { return bfs2d.DefaultGrid(ranks) }

// NewRunner2D builds a 2-D BFS runner over the given machine, placement
// policy, processor grid and graph.
func NewRunner2D(cfg ClusterConfig, policy Policy, grid Grid, params GraphParams) (*Runner2D, error) {
	return bfs2d.NewRunner(cfg, policy, grid, params, 0)
}

// Validate2D checks a 2-D runner's last BFS tree against the Graph500
// validation rules, mirroring Validate for the 1-D engine.
func Validate2D(r *Runner2D, root int64) error { return graph500.ValidateRun2D(r, root) }

// EngineChoice is the 1-D/2-D selector's verdict: which engine the
// analytic cost model predicts faster for a (machine, scale, nodes)
// cell, the grid the 2-D engine would use, and both modelled costs.
type EngineChoice = engine.Choice

// SelectEngine predicts whether the 1-D or the 2-D engine completes a
// BFS root faster on the given machine at the given graph scale and
// node count, pricing both engines from the machine model alone — no
// trial runs. See DESIGN.md §7 for the model and its calibration.
func SelectEngine(cfg ClusterConfig, scale, nodes int) EngineChoice {
	return engine.Select(cfg, scale, nodes)
}
