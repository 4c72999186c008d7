package graph500

import (
	"fmt"

	"numabfs/internal/graph"
	"numabfs/internal/msbfs"
)

// NewBatchRunner builds a batched MS-BFS runner under a benchmark
// Config, wiring the same graph cache and observability recorder the
// single-root path uses. The cache key matches Run's exactly — the
// batched engine partitions vertices identically — so an experiment
// mixing batched and sequential cells builds each graph once and both
// engines traverse bit-identical CSRs. NumRoots and Validate are
// ignored (batch size and validation are the caller's; see
// ValidateBatch). The runner is returned Setup and ready for RunBatch.
func NewBatchRunner(cfg Config) (*msbfs.Runner, error) {
	runner, err := msbfs.NewRunner(cfg.Machine, cfg.Policy, cfg.Params, cfg.Opts)
	if err != nil {
		return nil, err
	}
	if err := prepare(cfg, "msbfs ", &runner.Core, &runner.Graph, runner.Setup); err != nil {
		return nil, err
	}
	return runner, nil
}

// ValidateBatch checks every lane of the last RunBatch on r against the
// Graph500 specification, each lane's parent tree validated
// independently (the batched engine shares sweeps and collectives
// across lanes, but each lane's tree must stand on its own exactly as a
// sequential run's would).
func ValidateBatch(r *msbfs.Runner, roots []int64) error {
	csrs := r.CSRs()
	for l, root := range roots {
		if err := validateTree(r.LaneParents(l), root, csrs); err != nil {
			return fmt.Errorf("lane %d (root %d): %w", l, root, err)
		}
	}
	return nil
}

// LaneLevels reconstructs lane l's global level array from the batched
// runner's parent trees (-1 unreached), for tests comparing against the
// sequential reference BFS.
func LaneLevels(r *msbfs.Runner, l int, root int64) []int64 {
	return graph.TreeLevels(r.LaneParents(l), root)
}
