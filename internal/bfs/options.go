// Package bfs implements the paper's hybrid top-down / bottom-up BFS for
// distributed-memory NUMA clusters (after Beamer et al. and the Graph500
// reference code), together with every optimization level of Fig. 9:
//
//   - OptOriginal: the baseline — private in_queue/out_queue bitmaps per
//     rank, communication through the MPI library's default allgather
//     (recursive doubling / ring by size).
//   - OptShareInQueue: one in_queue (and in_queue_summary) mapping per
//     node shared by its ranks; leader-based allgather without the
//     broadcast step (Fig. 5b, step 3 eliminated).
//   - OptShareAll: out_queue and out_queue_summary shared too, so the
//     leader reads children's segments directly — the gather step also
//     disappears (Fig. 5b, step 1 eliminated).
//   - OptParAllgather: the inter-node allgather is split over per-socket
//     subgroups running concurrently so all NIC streams are used
//     (Fig. 7, Eq. 2).
//
// The summary-bitmap granularity (Section III.C, Fig. 16) and the
// process placement policy (Fig. 10) are orthogonal options.
package bfs

import (
	"fmt"

	"numabfs/internal/chassis"
	"numabfs/internal/wire"
)

// Opt is an optimization level, cumulative in the order of Fig. 9.
type Opt int

const (
	// OptOriginal is the unmodified hybrid BFS.
	OptOriginal Opt = iota
	// OptShareInQueue shares in_queue and in_queue_summary per node.
	OptShareInQueue
	// OptShareAll also shares out_queue and out_queue_summary.
	OptShareAll
	// OptParAllgather additionally parallelizes the inter-node allgather.
	OptParAllgather
	// OptCompressedAllgather additionally sends each allgather segment in
	// an adaptively chosen wire format (dense, sparse index list, or
	// run-length) picked per segment from its measured density, with the
	// encode/decode CPU time charged through the machine cost model
	// (frontier compression after Romera and Buluç & Madduri).
	OptCompressedAllgather
	// OptOverlapAllgather additionally pipelines the compressed parallel
	// allgather: each rank's in_queue segment travels in
	// Options.OverlapSegments chunks through nonblocking sends, and the
	// summary-share rebuild of a chunk runs the moment it lands while
	// later chunks are still in flight — communication/computation
	// overlap after Buluç & Madduri.
	OptOverlapAllgather
)

// String implements fmt.Stringer using the paper's labels.
func (o Opt) String() string {
	switch o {
	case OptOriginal:
		return "Original"
	case OptShareInQueue:
		return "Share in_queue"
	case OptShareAll:
		return "Share all"
	case OptParAllgather:
		return "Par allgather"
	case OptCompressedAllgather:
		return "Compressed allgather"
	case OptOverlapAllgather:
		return "Overlap allgather"
	default:
		return fmt.Sprintf("Opt(%d)", int(o))
	}
}

// OptNames maps the CLIs' -opt flag values to optimization levels.
var OptNames = map[string]Opt{
	"original": OptOriginal, "shareinq": OptShareInQueue, "shareall": OptShareAll,
	"par": OptParAllgather, "compressed": OptCompressedAllgather, "overlap": OptOverlapAllgather,
}

// Mode selects the traversal algorithm; the paper's intro compares the
// hybrid against pure top-down and pure bottom-up on one 64-core node.
type Mode int

const (
	// ModeHybrid switches between top-down and bottom-up by frontier
	// size, Beamer-style.
	ModeHybrid Mode = iota
	// ModeTopDown always explores from the frontier (mpi_simple-like).
	ModeTopDown
	// ModeBottomUp always scans unvisited vertices (mpi_replicated-like).
	ModeBottomUp
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case ModeHybrid:
		return "hybrid"
	case ModeTopDown:
		return "top-down"
	case ModeBottomUp:
		return "bottom-up"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// ModeNames maps the CLIs' -mode flag values to traversal modes.
var ModeNames = map[string]Mode{"hybrid": ModeHybrid, "topdown": ModeTopDown, "bottomup": ModeBottomUp}

// Options configures one BFS engine.
type Options struct {
	Opt  Opt
	Mode Mode
	// Granularity is the number of in_queue bits one summary bit covers
	// (Graph500 reference: 64; the paper's best: 256).
	Granularity int64
	// Alpha is the top-down -> bottom-up switch threshold: switch when
	// frontier edges exceed unexplored edges / Alpha
	// (chassis.DefaultAlpha says why the default is 30).
	Alpha float64
	// Dedup removes duplicate adjacencies during construction.
	Dedup bool
	// Chunk is the OpenMP dynamic-schedule chunk size in vertices.
	Chunk int64
	// WireFormat pins the OptCompressedAllgather codec to one wire
	// format; the zero value (wire.FormatAuto) enables the adaptive
	// per-segment selector. Ignored below OptCompressedAllgather.
	WireFormat wire.Format
	// WireSparseDensity, when > 0, replaces the analytic size-based
	// selector with a classic density threshold (Buluç & Madduri):
	// sparse below the threshold, dense at or above it. The ablation
	// knob of experiments.AblationCompression.
	WireSparseDensity float64
	// OverlapSegments is the pipeline chunk count per rank segment at
	// OptOverlapAllgather (0 selects the default of 2; capped at 256 by
	// the collective's tag space). More chunks hide more of each
	// transfer behind scanning but pay more per-message latency — the
	// knob of experiments.AblationOverlap. Ignored below
	// OptOverlapAllgather.
	OverlapSegments int
	// SpareRanks parks the last SpareRanks ranks of every node as hot
	// spares: they are excluded from the partition and every collective,
	// idle until a permanent crash promotes one into the dead rank's
	// slot. Each node must keep at least one active rank. Without a spare
	// on the dead rank's node, it reruns in place.
	SpareRanks int
}

// DefaultOptions returns the reference-code defaults.
func DefaultOptions() Options {
	return Options{
		Opt:         OptOriginal,
		Mode:        ModeHybrid,
		Granularity: 64,
		Alpha:       chassis.DefaultAlpha,
		Dedup:       true,
		Chunk:       1024,
	}
}

// Validate reports an option error, or nil.
func (o Options) Validate() error {
	if o.Granularity <= 0 || o.Granularity%64 != 0 {
		return fmt.Errorf("bfs: granularity %d must be a positive multiple of 64", o.Granularity)
	}
	if o.Alpha <= 0 {
		return fmt.Errorf("bfs: alpha must be positive")
	}
	if o.Chunk <= 0 {
		return fmt.Errorf("bfs: chunk %d must be positive", o.Chunk)
	}
	if o.Opt < OptOriginal || o.Opt > OptOverlapAllgather {
		return fmt.Errorf("bfs: unknown optimization level %d", int(o.Opt))
	}
	if o.OverlapSegments < 0 || o.OverlapSegments > 256 {
		return fmt.Errorf("bfs: overlap segments %d outside [0, 256]", o.OverlapSegments)
	}
	if o.WireFormat >= wire.FormatList {
		return fmt.Errorf("bfs: wire format %d is not a bitmap format", int(o.WireFormat))
	}
	if o.WireSparseDensity < 0 || o.WireSparseDensity > 1 {
		return fmt.Errorf("bfs: sparse-density threshold %g outside [0, 1]", o.WireSparseDensity)
	}
	if o.SpareRanks < 0 {
		return fmt.Errorf("bfs: spare ranks %d must be non-negative", o.SpareRanks)
	}
	return nil
}
