package experiments

import (
	"fmt"

	"numabfs/internal/fault"
	"numabfs/internal/graph500"
)

// availPolicy is one permanent-crash completion policy under study,
// named by the hot-spare reservation that selects it: none reruns the
// dead rank in place, one per node promotes a spare into its slot.
type availPolicy struct {
	label  string
	spares int
}

func availPolicies() []availPolicy {
	return []availPolicy{{"rerun", 0}, {"spare", 1}}
}

// ExtAvailability studies degraded-mode completion after permanent rank
// deaths on a fixed 2-node cluster: each cumulative optimization level
// is run under both completion policies (rerun in place, hot-spare
// promotion) with one and then two ranks killed
// permanently mid-iteration. Crash times are fractions of the same
// configuration's crash-free mean iteration, so every cell is as
// deterministic as the clean sweep; the two crashes land on different
// nodes, so the spare policy promotes one reserved rank per node.
//
// Cells report, per crash count: harmonic TEPS retained vs the same
// level and spare reservation without crashes, the mean-iteration time
// ratio (>= 1), and the modelled MTTR in milliseconds — heartbeat-lease
// detection latency plus the adjacency re-own transfer a promoted spare
// paid. The spare policy's baseline runs on the reduced active
// set (spares parked), so its retained fraction isolates the recovery
// cost rather than the reservation cost. Every degraded run passes the
// full Graph500 validation suite.
func ExtAvailability(s Spec) (*Table, error) {
	const nodes = 2
	vs := compressedVariants()
	// Crash schedule: ranks on both nodes (ranks 0-7 are node 0, 8-15
	// node 1 at ppn=8), at fixed fractions of the clean mean iteration.
	// Neither rank is a reserved spare (those are the last rank of each
	// node), so the schedule is valid under every policy.
	crashRanks := []int{2, 10}
	crashFracs := []float64{0.45, 0.7}

	// First batch: one crash-free baseline per (level, spare
	// reservation). The spare policy runs on one fewer active rank per
	// node, so both its baseline and its cached graph differ.
	spareSet := []int{0, 1}
	bases, err := s.collect(cross(vs, spareSet, func(v variant, spares int) cell {
		opts := optsAt(v.opt)
		opts.SpareRanks = spares
		cfg := s.config(nodes, v.policy, opts)
		cfg.Faults = nil
		return cell{fmt.Sprintf("%s/base spares=%d", v.label, spares), cfg}
	}))
	if err != nil {
		return nil, err
	}

	// Second batch: the crash cells, one row of crash counts per (level,
	// policy). Their plans depend on the baseline mean times, so they
	// cannot join the first batch. Validation is forced on — the point
	// of the figure is that every degraded run still produces a correct
	// BFS tree.
	var cells []cell
	var rowLabels []string
	var rowBases []*graph500.Result
	for vi, v := range vs {
		for _, pol := range availPolicies() {
			base := bases[vi*len(spareSet)+pol.spares]
			rowLabels = append(rowLabels, fmt.Sprintf("%s / %s", v.label, pol.label))
			rowBases = append(rowBases, base)
			crashes := make([]fault.Crash, len(crashRanks))
			for c, rank := range crashRanks {
				crashes[c] = fault.Crash{Rank: rank, AtNs: crashFracs[c] * base.MeanTimeNs, Permanent: true}
			}
			for k := 1; k <= len(crashes); k++ {
				opts := optsAt(v.opt)
				opts.SpareRanks = pol.spares
				cfg := s.config(nodes, v.policy, opts)
				cfg.Faults, cfg.Validate = &fault.Plan{Crashes: crashes[:k:k]}, true
				cells = append(cells, cell{fmt.Sprintf("%s/%s x%d", v.label, pol.label, k), cfg})
			}
		}
	}
	res, err := s.collect(cells)
	if err != nil {
		return nil, err
	}

	t := &Table{
		Name: "Ext. availability",
		Title: fmt.Sprintf("degraded-mode completion under permanent rank deaths (%d nodes, scale %d, validated)",
			nodes, s.scaleFor(nodes)),
		Columns: []string{
			"teps x1", "time x1", "mttr ms x1",
			"teps x2", "time x2", "mttr ms x2",
		},
		Notes: []string{
			"teps/time columns are relative to the same optimization level and spare reservation without crashes (spare-policy baselines park one rank per node)",
			fmt.Sprintf("crashes are permanent: rank %d at %.0f%% and rank %d at %.0f%% of the clean mean iteration, on different nodes",
				crashRanks[0], 100*crashFracs[0], crashRanks[1], 100*crashFracs[1]),
			"mttr = heartbeat-lease detection latency + the promoted spare's re-own transfer; every crash reruns the iteration from its root, rerun with the dead rank restarted in place, spare with a parked same-node rank promoted into its slot",
			"every degraded run passes full Graph500 validation",
		},
	}
	for i, row := range rows(res, len(crashRanks)) {
		base := rowBases[i]
		var vals []float64
		for k, r := range row {
			if r.Faults != k+1 {
				return nil, fmt.Errorf("%s: %d crash(es) scheduled, %d fired", cells[i*len(row)+k].label, k+1, r.Faults)
			}
			vals = append(vals, r.HarmonicTEPS/base.HarmonicTEPS, r.MeanTimeNs/base.MeanTimeNs, r.MTTRNs/1e6)
		}
		t.AddRow(rowLabels[i], vals...)
	}
	return t, nil
}
