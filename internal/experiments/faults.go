package experiments

import (
	"fmt"

	"numabfs/internal/fault"
)

// planCol is one column of a fault sweep: its label and the plan its
// cells run under (nil runs fault-free, whatever Spec.Faults says).
type planCol struct {
	label string
	plan  *fault.Plan
}

// underPlans is the variants × plans product on nodes, labelled
// "<variant>/<column>"; validate forces tree validation on every cell.
func (s Spec) underPlans(nodes int, vs []variant, cols []planCol, validate bool) []cell {
	return cross(vs, cols, func(v variant, c planCol) cell {
		cfg := s.config(nodes, v.policy, optsAt(v.opt))
		cfg.Faults, cfg.Validate = c.plan, validate
		return cell{v.label + "/" + c.label, cfg}
	})
}

// ExtFaults studies graceful degradation under deterministic fault
// injection (internal/fault) on a fixed 4-node cluster: one node's
// inter-node bandwidth is degraded to a sweep of factors — the
// generalization of the testbed's ill-performing node that the paper
// could only exclude from Figs. 13-14 — and every cumulative
// optimization level is rerun under each factor. Cells are TEPS
// retained relative to the same level's undegraded run, so rows compare
// directly: the closer to 1.0 under a harsh factor, the more gracefully
// that level degrades. The parallel allgather's 8-stream fan-out leans
// hardest on every node's full NIC bandwidth, so it is expected to lose
// the most; the compressed level moves fewer bytes over the degraded
// link and should retain more.
//
// A final row demonstrates crash recovery: a rank is killed mid-run at
// a virtual time chosen from the undegraded baseline, and the run
// completes by rerunning the iteration from its root with a finite TEPS
// (the retained fraction includes the modelled detection timeout and
// the lost attempt).
func ExtFaults(s Spec) (*Table, error) {
	const nodes = 4
	const slowNode = nodes - 1
	factors := []float64{1.0, 0.8, 0.5, 0.25}
	cols := make([]planCol, len(factors))
	for i, f := range factors {
		cols[i].label = fmt.Sprintf("x%g", f)
		if f != 1 {
			plan := fault.WeakNode(slowNode, f)
			cols[i].plan = &plan
		}
	}
	vs := compressedVariants()
	res, err := s.collect(s.underPlans(nodes, vs, cols, false))
	if err != nil {
		return nil, err
	}
	grid := rows(res, len(cols))

	// Crash-recovery demonstration: kill rank 0 halfway through the
	// mean iteration of the undegraded parallel-allgather run. The
	// crash time is derived from modelled (virtual) time, so the row is
	// as deterministic as every other. Its plan depends on the sweep's
	// baseline result, so it is a second (single-cell) batch.
	base := grid[parRung][0]
	plan := fault.Plan{Crashes: []fault.Crash{{Rank: 0, AtNs: 0.5 * base.MeanTimeNs}}}
	par := vs[parRung]
	crash := cell{"crash", s.config(nodes, par.policy, optsAt(par.opt))}
	crash.cfg.Faults = &plan
	crashed, err := s.collect([]cell{crash})
	if err != nil {
		return nil, err
	}
	cr := crashed[0]
	if cr.Faults == 0 {
		return nil, fmt.Errorf("crash: scheduled crash at %.0f ns never fired", plan.Crashes[0].AtNs)
	}

	t := &Table{
		Name:    "Ext. faults",
		Title:   fmt.Sprintf("TEPS retained under a degraded node (%d nodes, scale %d, node %d slowed)", nodes, s.scaleFor(nodes), slowNode),
		Columns: []string{"bw x1.0", "bw x0.8", "bw x0.5", "bw x0.25"},
		Notes: []string{
			"cells are harmonic-TEPS retained vs the same optimization level at full bandwidth (column 1 is 1.0 by construction)",
			"the crash row kills rank 0 mid-iteration; the run completes by rerunning the iteration from its root (first column only)",
			fmt.Sprintf("crash row survived %d crash(es); retained fraction includes detection timeout and the lost attempt", cr.Faults),
		},
	}
	for i, row := range grid {
		t.AddRow(vs[i].label, retained(row)...)
	}
	t.AddRow("Par allgather, rank crash", cr.HarmonicTEPS/base.HarmonicTEPS, 0, 0, 0)
	return t, nil
}
