package experiments

import (
	"numabfs/internal/bfs"
	"numabfs/internal/machine"
	"numabfs/internal/trace"
)

// Fig3 reproduces the core-scaling experiment: BFS speedup on 1 core,
// 8 cores (one socket, all-local memory) and 64 cores (eight sockets)
// with the graph interleaved across sockets — plus the bound mapping the
// paper recommends in Section II.D. Paper shape: 1->8 cores ~6.98x near
// linear; 8->64 cores only ~2.77x interleaved but ~6.31x bound.
func Fig3(s Spec) (*Table, error) {
	cores := func(label string, sockets, perSocket int, policy machine.Policy) cell {
		c := cell{label, s.config(1, policy, bfs.DefaultOptions())}
		c.cfg.Machine.SocketsPerNode, c.cfg.Machine.CoresPerSocket = sockets, perSocket
		return c
	}
	cells := []cell{
		cores("1 core (1 socket, local)", 1, 1, machine.PPN1NoFlag),
		cores("8 cores (1 socket, local)", 1, 8, machine.PPN1NoFlag),
		cores("64 cores (8 sockets, interleave)", 8, 8, machine.PPN1Interleave),
		cores("64 cores (8 sockets, bind-to-socket)", 8, 8, machine.PPN8Bind),
	}
	res, err := s.collect(cells)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Name:    "Fig. 3",
		Title:   "BFS speedup by core count and NUMA placement (single node)",
		Columns: []string{"TEPS", "vs 1 core", "vs 8 cores"},
		Notes:   []string{"paper: 8 cores = 6.98x of 1 core; 64 cores = 2.77x of 8 cores interleaved, 6.31x bound"},
	}
	tp := project(res, teps)
	t.addColumns(labels(cells), tp, ratio(tp, tp[0]), ratio(tp, tp[1]))
	return t, nil
}

// onOneNode declares one cell per policy on a single node at the
// default options, labelled by policy.
func (s Spec) onOneNode(policies ...machine.Policy) []cell {
	cells := make([]cell, len(policies))
	for i, p := range policies {
		cells[i] = cell{p.String(), s.config(1, p, bfs.DefaultOptions())}
	}
	return cells
}

// Fig10 reproduces the execution-policy comparison on a single node:
// ppn=1 without flags, ppn=1 interleaved, ppn=8 unbound, ppn=8 bound.
// Paper shape: bind = 1.74x interleave = 2.08x ppn8-noflag; noflag worst.
func Fig10(s Spec) (*Table, error) {
	cells := s.onOneNode(machine.PPN1NoFlag, machine.PPN1Interleave, machine.PPN8NoFlag, machine.PPN8Bind)
	res, err := s.collect(cells)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Name:    "Fig. 10",
		Title:   "\"Original\" implementation under various execution policies (1 node)",
		Columns: []string{"TEPS", "norm vs interleave"},
		Notes:   []string{"paper: bind-to-socket = 1.74x of ppn=1.interleave and 2.08x of ppn=8.noflag"},
	}
	tp := project(res, teps)
	t.addColumns(labels(cells), tp, ratio(tp, tp[1]))
	return t, nil
}

// Fig11 reproduces the single-node execution-time breakdown and the
// computation-phase speedups of binding: ppn=1.interleave vs
// ppn=8.bind-to-socket. Paper shape: bottom-up computation speeds up
// ~1.58x from the elimination of remote accesses; both computation
// phases dominate the breakdown on one node.
func Fig11(s Spec) (*Table, error) {
	cells := s.onOneNode(machine.PPN1Interleave, machine.PPN8Bind)
	res, err := s.collect(cells)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Name:  "Fig. 11",
		Title: "Execution time breakdown (ms) and computation speedup (1 node)",
		Columns: []string{
			"td-comp", "td-comm", "bu-comp", "bu-comm", "switch", "stall", "total",
		},
		Notes:      []string{"paper: bottom-up computation speedup ~1.58x from binding"},
		Breakdowns: make(map[string]trace.Breakdown),
	}
	for i, c := range cells {
		bd := res[i].Breakdown
		t.Breakdowns[c.label] = bd
		t.AddRow(c.label,
			bd.Ns[trace.TDComp]/1e6, bd.Ns[trace.TDComm]/1e6,
			bd.Ns[trace.BUComp]/1e6, bd.Ns[trace.BUComm]/1e6,
			bd.Ns[trace.Switch]/1e6, bd.Ns[trace.Stall]/1e6,
			bd.Total()/1e6)
	}
	il, bind := res[0].Breakdown.Ns, res[1].Breakdown.Ns
	t.AddRow("computation speedup (td, bu)", il[trace.TDComp]/bind[trace.TDComp], il[trace.BUComp]/bind[trace.BUComp])
	return t, nil
}

// AlgorithmComparison reproduces the Section II.A measurement: on one
// 64-core node, the hybrid algorithm against pure top-down and pure
// bottom-up. Paper: hybrid = 27.3x top-down (pure MPI, 64 ranks) and
// 4.7x bottom-up (8 ranks x 8 threads).
func AlgorithmComparison(s Spec) (*Table, error) {
	mode := func(label string, m bfs.Mode) knob {
		return knob{label, func(o *bfs.Options) { o.Mode = m }}
	}
	cells := s.knobs(1, bfs.OptOriginal, []knob{
		mode("hybrid (8 ranks x 8 threads)", bfs.ModeHybrid),
		mode("top-down (pure MPI, 64 ranks)", bfs.ModeTopDown),
		mode("bottom-up (8 ranks x 8 threads)", bfs.ModeBottomUp),
	})
	// 64 single-thread MPI ranks: model each core as its own bandwidth
	// domain with 1/8 of a socket's resources.
	m := &cells[1].cfg.Machine
	m.SocketsPerNode, m.CoresPerSocket = 64, 1
	m.MemBWPerSocket /= 8
	m.L3Bytes = max(m.L3Bytes/8, 64)
	res, err := s.collect(cells)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Name:    "Sec. II.A",
		Title:   "Hybrid vs pure top-down vs pure bottom-up (64-core node)",
		Columns: []string{"TEPS", "hybrid speedup"},
		Notes:   []string{"paper: hybrid 27.3x over top-down, 4.7x over bottom-up"},
	}
	tp := project(res, teps)
	t.addColumns(labels(cells), tp, []float64{1, tp[0] / tp[1], tp[0] / tp[2]})
	return t, nil
}
