package experiments

import (
	"fmt"

	"numabfs/internal/bfs"
	"numabfs/internal/fault"
	"numabfs/internal/graph500"
)

// lossRates is the message-unreliability sweep: drop probability per
// inter-node message (fault.Lossy derives correlated duplicate, corrupt
// and reorder probabilities from it). Rate 0 still activates the
// reliable transport — that column isolates the pure protocol cost of
// frame headers and acks from the cost of actual loss.
var lossRates = []float64{0, 0.005, 0.02, 0.05}

// ExtLoss studies end-to-end result integrity and throughput under
// lossy links on a fixed 4-node cluster: every cumulative optimization
// level is rerun under a sweep of per-message drop rates (with
// correlated duplication, corruption and reordering), carried by the
// reliable transport under internal/mpi, modelled as charges: sequence
// numbers, CRC (a corrupted frame counts as a drop), cumulative acks,
// timeout retransmission with exponential backoff.
// Every cell runs with full Graph500 tree validation as the oracle: a
// run only scores if its BFS tree is provably correct, so the table
// doubles as an integrity proof under any loss plan.
//
// Cells are harmonic-TEPS retained relative to the same level's clean
// run (no transport at all). The "loss 0%" column is the protocol tax
// alone; later columns add retransmission stalls. The compressed
// allgather moves the smallest segments, so each drop costs it the
// least absolute retransmission time — it degrades the most gracefully,
// the mirror image of the bandwidth-degradation result in Ext. faults.
func ExtLoss(s Spec) (*Table, error) {
	const nodes = 4
	const seed = 2026
	cols := []planCol{{"clean", nil}} // clean: transport not even compiled into the timing
	for _, rate := range lossRates {
		plan := fault.Lossy(seed, rate)
		cols = append(cols, planCol{fmt.Sprintf("rate %g", rate), &plan})
	}
	vs := compressedVariants()
	// Graph500 tree validation is the oracle for every cell.
	res, err := s.collect(s.underPlans(nodes, vs, cols, true))
	if err != nil {
		return nil, err
	}
	grid := rows(res, len(cols))

	// Per-drop cost comparison between the largest-segment and the
	// smallest-segment collective at the harshest rate.
	perDrop := func(row []*graph500.Result) float64 {
		last := row[len(row)-1]
		var retrans int64
		for _, rr := range last.PerRoot {
			retrans += rr.Xport.Retransmits
		}
		if retrans == 0 {
			return 0
		}
		return (last.MeanTimeNs - row[0].MeanTimeNs) * float64(len(last.PerRoot)) / float64(retrans)
	}
	t := &Table{
		Name: "Ext. loss",
		Title: fmt.Sprintf("TEPS retained under lossy links (%d nodes, scale %d, validated roots, seed %d)",
			nodes, s.scaleFor(nodes), seed),
		Columns: []string{"clean", "loss 0%", "loss 0.5%", "loss 2%", "loss 5%"},
		Notes: []string{
			"cells are harmonic-TEPS retained vs the same optimization level with no loss plan (column 1 is 1.0 by construction)",
			"every cell validates each BFS tree against the Graph500 spec — integrity holds under every loss rate",
			"the loss 0% column activates the reliable transport with zero loss: pure frame-header + ack protocol tax",
			fmt.Sprintf("virtual time lost per dropped message at 5%%: par allgather %.0f ns vs compressed allgather %.0f ns — smaller segments make each retransmission cheaper",
				perDrop(grid[parRung]), perDrop(grid[compRung])),
		},
	}
	for i, row := range grid {
		t.AddRow(vs[i].label, retained(row)...)
	}
	// Transport-ledger rows for the baseline level: retransmissions and
	// protocol overhead per root across the sweep. The clean column is
	// zero by construction — no transport, no protocol bytes.
	t.AddRow("Retransmits/root (Original)", project(grid[0], func(r *graph500.Result) float64 {
		return perRoot(r, func(rr bfs.RootResult) float64 { return float64(rr.Xport.Retransmits) })
	})...)
	t.AddRow("Overhead MiB/root (Original)", project(grid[0], func(r *graph500.Result) float64 {
		return perRoot(r, func(rr bfs.RootResult) float64 { return float64(rr.Xport.OverheadBytes) }) / (1 << 20)
	})...)
	return t, nil
}
