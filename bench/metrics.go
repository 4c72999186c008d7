package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
)

// metricDef declares one metric. The registry below is the single
// source of the metric names: BENCHMARK.json is printed from it
// (-print-benchmark-json), the smoke test checks every run against it,
// and README.md's tables follow it.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the parent's median it may worsen by
	// Exact marks numbers on the virtual clock and exact counts: for
	// one seed they repeat bit-for-bit, so two commits compare exactly.
	Exact bool
	// Moves names the end-to-end metric and workload a per-layer metric
	// is expected to move (README.md, "How the metrics interact").
	Moves string
	// Demoted marks an end-to-end metric BENCHMARK.json lists per layer.
	Demoted bool
}

// Units name their clock: "virt_" units are simulated time (what the
// modelled cluster would take), everything else is host time (what the
// simulator takes) or a count.

// endToEnd lists what a user of the simulator sees, per workload. The
// driver takes the spread of each over ten seeds, so a bound has to
// cover host noise and, on the virtual clock, the seed-to-seed
// variation of graph and roots (README.md gives the measured spreads);
// for one seed the virtual metrics are exact and -compare holds them
// to 1e-9 instead.
//
// Demoted metrics could not be made steady across seeds on the
// reference box (tails over 16 to 64 ops): every run still computes
// them and -compare still judges them, but BENCHMARK.json carries them
// without a bound, as the per-layer metrics bench.<name>.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "host_teps", Unit: "edges/s", Better: "higher", Bound: 0.25},
	{Name: "host_op_ms_p50", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "host_op_ms_p90", Unit: "ms", Better: "lower", Bound: 0.25, Demoted: true},
	{Name: "host_allocs_per_op", Unit: "count", Better: "lower", Bound: 0.20},
	{Name: "host_live_heap_mb", Unit: "MiB", Better: "lower", Bound: 0.10},
	{Name: "virt_teps_hmean", Unit: "edges/virt_s", Better: "higher", Bound: 0.20, Exact: true},
	{Name: "virt_op_ms_p50", Unit: "virt_ms", Better: "lower", Bound: 0.20, Exact: true},
	{Name: "virt_op_ms_p95", Unit: "virt_ms", Better: "lower", Bound: 0.25, Exact: true, Demoted: true},
}

// cpuLayers are the internal packages the CPU profile is attributed to.
var cpuLayers = []string{
	"bfs", "bfs2d", "msbfs", "queryserv", "collective", "mpi", "simnet",
	"wire", "bitmap", "graph", "machine", "omp", "obs", "graph500",
}

// perLayer lists the per-layer ledger a traced run reports. Metrics a
// workload does not exercise read 0 there (queryserv.* off serve).
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	var defs []metricDef
	add := func(name, unit, better string, exact bool, moves string) {
		defs = append(defs, metricDef{Name: name, Unit: unit, Better: better, Exact: exact, Moves: moves})
	}
	const topLine = "host_teps, host_op_ms_p50 of the profiled workload"
	for _, l := range cpuLayers {
		add(l+".cpu_self_share", "frac", "lower", false, topLine)
		add(l+".cpu_incl_share", "frac", "lower", false, topLine)
	}
	add("runtime.gc_share", "frac", "lower", false, "host_allocs_per_op, host_teps")
	add("runtime.other_share", "frac", "lower", false, topLine)
	add("bench.trace_overhead_frac", "frac", "lower", false, "none: cost of the harness's own tracing")
	for _, d := range endToEnd {
		if d.Demoted {
			add("bench."+d.Name, d.Unit, d.Better, d.Exact, "itself: an end-to-end metric too unsteady across seeds to carry a bound")
		}
	}

	const comm = "host_teps, host_allocs_per_op on comm16-raw/comm16-top; some on grid2d; flat on scan2"
	add("mpi.sendrecv_ns", "ns", "lower", false, comm)
	add("mpi.sendrecv_allocs", "count", "lower", false, comm)
	add("mpi.isend_wait_ns", "ns", "lower", false, "host_teps on comm16-top")
	add("mpi.barrier_us.np128", "us", "lower", false, comm)
	add("mpi.world_build_ms.np128", "ms", "lower", false, "setup_s")
	add("mpi.host_ns_per_msg", "ns", "lower", false, comm)

	for _, c := range []struct{ name, moves string }{
		{"allgather_ring", "comm16-raw"},
		{"par_inplace", "comm16-top"},
		{"par_inplace_compressed", "comm16-top"},
		{"alltoallv_i64", "grid2d"},
	} {
		add("collective."+c.name+"_us.np128", "us", "lower", false, "host_teps on "+c.moves)
		add("collective."+c.name+"_virt_us.np128", "virt_us", "lower", true, "virt_teps_hmean on "+c.moves)
	}
	add("collective.allgather_ring_allocs_per_step", "count", "lower", false, "host_allocs_per_op on comm16-raw")

	const scan = "host_teps on scan2 (and grid2d); flat on comm16-*"
	add("bitmap.check_ns", "ns", "lower", false, scan)
	add("bitmap.append_setbits_gbps", "GB/s", "higher", false, scan)
	add("bitmap.summary_rebuild_gbps", "GB/s", "higher", false, scan)

	const codec = "host_teps on grid2d; invisible on comm16-top (wire < 1 % there)"
	for _, f := range []string{"dense", "sparse", "rle"} {
		add("wire.encode_ns_per_word."+f, "ns", "lower", false, codec)
		add("wire.decode_ns_per_word."+f, "ns", "lower", false, codec)
	}
	add("wire.list_encode_ns_per_val", "ns", "lower", false, codec)
	add("wire.list_decode_ns_per_val", "ns", "lower", false, codec)
	add("wire.ratio", "ratio", "higher", true, "virt_teps_hmean on comm16-top, grid2d, serve")

	const volume = "virt_teps_hmean on comm16-*"
	add("simnet.msgs_per_op", "count", "lower", true, volume+"; host_op_ms_p50 there")
	add("simnet.inter_mib_per_op", "MiB", "lower", true, volume)
	add("simnet.intra_mib_per_op", "MiB", "lower", true, volume)
	add("simnet.raw_inter_mib_per_op", "MiB", "lower", true, volume)

	const phases = "virt_op_ms_p50: comp phases on scan2, comm phases on comm16-*/grid2d"
	for i := range ledgerPhases {
		add("trace.virt_us."+phaseName(i), "virt_us", "lower", true, phases)
	}
	add("trace.overlap_exposed_us", "virt_us", "lower", true, "virt_op_ms_p50 on comm16-top")
	add("trace.levels_td", "count", "lower", true, phases)
	add("trace.levels_bu", "count", "lower", true, phases)

	add("rmat.edge_ns", "ns", "lower", false, "setup_s")
	add("graph.csr_mib", "MiB", "lower", true, "setup_s, host_live_heap_mb")
	add("graph.reference_bfs_ms", "ms", "lower", false, "none: the serial baseline")
	add("graph.sim_overhead_x", "ratio", "lower", false, "host_teps (reference edges/s over it)")
	add("graph500.validate_ms_per_op", "ms", "lower", false, "none: shows validation cost moving into or out of RunRoot")

	const slo = "virt_op_ms_p95, virt_teps_hmean on serve"
	add("queryserv.mean_fill", "count", "higher", true, slo)
	add("queryserv.batches_per_stream", "count", "lower", true, slo)
	add("queryserv.rounds_per_query", "count", "lower", true, slo)
	add("queryserv.admit_wait_ms_p50", "virt_ms", "lower", true, slo)
	add("queryserv.served_qps", "1/virt_s", "higher", true, slo)
	add("queryserv.sat_qps", "1/virt_s", "higher", true, slo)
	add("queryserv.p95_ms.at60k", "virt_ms", "lower", true, slo)

	add("engine.select_us", "us", "lower", false, "none")
	add("obs.host_overhead_frac", "frac", "lower", false, "none: host_teps with obs off must stay flat")
	add("obs.spans_per_op", "count", "lower", true, "obs.host_overhead_frac")
	add("obs.export_ms", "ms", "lower", false, "none")
	return defs
}

// suiteOnly lists what only a whole-suite run can report, because it
// spans workloads or costs more than a traced run may; these are in the
// -out file but not in BENCHMARK.json.
var suiteOnly = []metricDef{
	{Name: "ladder.top_over_raw", Unit: "ratio", Better: "higher", Exact: true,
		Moves: "comm16-top virt_teps_hmean over comm16-raw's: the repo's Fig. 9 ladder ratio"},
	{Name: "engine.picks_measured_winner", Unit: "count", Better: "higher", Exact: true,
		Moves: "1 when the selector's verdict for (scale 18, 16 nodes) matches measured virt_op_ms_p50 of comm16-top vs grid2d"},
	{Name: "experiments.fig9_host_s", Unit: "s", Better: "lower",
		Moves: "tracks tier-1 wall time"},
}

// metricTables renders the registry as the markdown tables README.md
// carries (-print-metric-tables).
func metricTables() string {
	var b strings.Builder
	b.WriteString("| end-to-end metric | unit | better | bound |\n|---|---|---|---|\n")
	for _, d := range endToEnd {
		bound := fmt.Sprintf("%g %%", 100*d.Bound)
		if d.Demoted {
			bound += " (`-compare` only; per-layer `bench." + d.Name + "` in BENCHMARK.json)"
		}
		fmt.Fprintf(&b, "| `%s` | %s | %s | %s |\n", d.Name, d.Unit, d.Better, bound)
	}
	for _, part := range []struct {
		title string
		defs  []metricDef
	}{{"per-layer metric", perLayer}, {"suite-only metric", suiteOnly}} {
		fmt.Fprintf(&b, "\n| %s | unit | better | exact | expected to move |\n|---|---|---|---|---|\n", part.title)
		for _, d := range part.defs {
			exact := ""
			if d.Exact {
				exact = "yes"
			}
			fmt.Fprintf(&b, "| `%s` | %s | %s | %s | %s |\n", d.Name, d.Unit, d.Better, exact, d.Moves)
		}
	}
	return b.String()
}

// benchmarkJSON renders BENCHMARK.json from the registry.
func benchmarkJSON() ([]byte, error) {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		if len(w.Why) > 200 {
			return nil, fmt.Errorf("workload %s: why is %d characters, limit 200", w.Name, len(w.Why))
		}
		doc.Workloads = append(doc.Workloads, wl{w.Name, w.Why})
	}
	for _, m := range endToEnd {
		if !m.Demoted {
			doc.EndToEnd = append(doc.EndToEnd, e2e{m.Name, m.Unit, m.Better, m.Bound})
		}
	}
	for _, m := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layer{m.Name, m.Unit, m.Better})
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}
