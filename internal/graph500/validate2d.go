package graph500

import "numabfs/internal/bfs2d"

// ValidateRun2D checks the BFS tree left in a 2-D runner's rank states
// against the same Graph500 rule set as ValidateRun, over the assembled
// parent array and the grid cells' CSRs.
func ValidateRun2D(r *bfs2d.Runner, root int64) error {
	return validateTree(r.Parents(), root, r.CSRs())
}
