package main

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"runtime"
	"runtime/pprof"
	"time"
)

// runConfig says what one run of a workload measures. The driver's
// --trace 0 is Untraced alone, --trace 1 is Traced alone; the
// whole-suite run sets both and shares the set-up. Every run derives
// the end-to-end metrics from its plain passes; a traced-only run has
// one set-up and one pass behind them.
type runConfig struct {
	Seed    uint64
	Seconds float64 // timed passes repeat until this much time has gone by...
	Passes  int     // ...unless a fixed number of passes is asked for
	// Untraced measures the end-to-end metrics: three cold set-ups and
	// the timed passes, nothing recording.
	Untraced bool
	// Traced measures the per-layer ledger: harness spans, the serial
	// reference depth check, the exact counts, one pass under the CPU
	// profile, one with the simulator's recorder attached, the substrate
	// probes.
	Traced bool
	// Probes carries substrate-probe results measured earlier in the
	// same process, so a suite run probes once; nil measures them.
	Probes map[string]float64
	// Corrupt is the harness's self-test: it overwrites one parent entry
	// of op 0 before validation, and the run must then report a failure.
	Corrupt  bool
	SpanPath string // traced: where the spans go, "" to keep them in memory only
	Log      io.Writer
}

// metricValue is one reported number. Samples are the per-pass (or
// per-build) values behind a host metric, kept so -compare can state a
// spread; N is the sample count behind a percentile.
type metricValue struct {
	Value   float64   `json:"value"`
	Unit    string    `json:"unit"`
	N       int       `json:"n,omitempty"`
	Samples []float64 `json:"samples,omitempty"`
}

// workloadResult is everything one run of one workload reports.
type workloadResult struct {
	Name       string                 `json:"name"`
	Attempted  int                    `json:"attempted"`
	Failed     int                    `json:"failed"`
	Errors     []string               `json:"errors,omitempty"`
	Passes     int                    `json:"passes"`
	VirtDigest string                 `json:"virt_digest"`
	EndToEnd   map[string]metricValue `json:"end_to_end,omitempty"`
	PerLayer   map[string]metricValue `json:"per_layer,omitempty"`
}

const (
	depthChecks   = 8 // ops compared against the serial reference BFS
	tracedPlain   = 1 // plain passes a traced-only run takes as its baseline
	maxErrorsKept = 8
)

// pass is one timed walk over the op list.
type pass struct {
	wall   time.Duration
	edges  int64
	allocs uint64
	opMs   []float64
}

func (p pass) teps() float64 { return float64(p.edges) / p.wall.Seconds() }

// workloadRun is the state of one run.
type workloadRun struct {
	w    workload
	cfg  runConfig
	res  *workloadResult
	sp   *spanRec
	eng  runner
	ops  []op
	want []uint64 // per-op signature of the check pass: every later pass must reproduce it
	out  opOut
}

func (r *workloadRun) logf(format string, a ...any) {
	if r.cfg.Log != nil {
		fmt.Fprintf(r.cfg.Log, "# %s: "+format+"\n", append([]any{r.w.Name}, a...)...)
	}
}

func (r *workloadRun) fail(opIdx int, err error) {
	r.res.Failed++
	if len(r.res.Errors) < maxErrorsKept {
		r.res.Errors = append(r.res.Errors, fmt.Sprintf("op %d: %v", opIdx, err))
	}
}

// runWorkload runs one workload as cfg asks.
func runWorkload(w workload, cfg runConfig) (*workloadResult, error) {
	r := &workloadRun{w: w, cfg: cfg, res: &workloadResult{Name: w.Name}}
	if cfg.Traced {
		r.sp = newSpanRec()
	}
	top := r.sp.begin("workload", -1)

	setups, err := r.setUp()
	if err != nil {
		return nil, err
	}
	r.ops = w.buildOps(r.eng, cfg.Seed)

	chk, err := r.checkPass()
	if err != nil {
		return nil, err
	}

	// Plain passes: nothing recording. They carry every end-to-end
	// metric, and the baseline a traced run states its overheads against.
	var passes []pass
	var spent time.Duration
	more := func() bool {
		switch {
		case cfg.Passes > 0:
			return len(passes) < cfg.Passes
		case cfg.Untraced:
			return spent.Seconds() < cfg.Seconds
		default:
			return len(passes) < tracedPlain
		}
	}
	for more() {
		p := r.plainPass(nil)
		passes = append(passes, p)
		spent += p.wall
	}
	r.res.Passes = len(passes)
	r.logf("%d plain passes of %d ops in %.1f s", len(passes), len(r.ops), spent.Seconds())

	r.endToEnd(setups, passes, chk)
	if cfg.Traced {
		if err := r.perLayer(passes, chk); err != nil {
			return nil, err
		}
	}
	r.sp.end(top)
	if cfg.Traced && cfg.SpanPath != "" {
		if err := r.sp.writeJSONL(cfg.SpanPath); err != nil {
			return nil, err
		}
	}
	return r.res, nil
}

// setUp builds the runner cold and runs kernel 1 — three times when
// set-up time is being measured, keeping the last build.
func (r *workloadRun) setUp() ([]float64, error) {
	builds := 1
	if r.cfg.Untraced {
		builds = 3
	}
	var secs []float64
	for i := 0; i < builds; i++ {
		r.eng = nil
		runtime.GC() // the previous build is garbage; do not let it crowd this one
		id := r.sp.begin("setup", -1)
		t0 := time.Now()
		eng, err := newEngine(r.w.Spec, rmatSeed(r.cfg.Seed), r.sp)
		secs = append(secs, time.Since(t0).Seconds())
		r.sp.end(id)
		if err != nil {
			return nil, err
		}
		r.eng = eng
	}
	r.logf("set-up %.3f s (median of %d cold builds)", median(secs), builds)
	return secs, nil
}

// checked is what the check pass learns.
type checked struct {
	virtNs, virtTEPS []float64
	leds             []ledger // traced only
	refMs            []float64
	refEdges         int64
	refMiB           float64
}

// checkPass runs every op once, untimed, and checks it: Graph500
// validation of the tree, and on a traced run depth agreement with the
// independent serial reference on the first ops. It doubles as the
// warm-up, and fixes the per-op signatures every later pass must
// reproduce and the digest two commits compare.
func (r *workloadRun) checkPass() (*checked, error) {
	chk := &checked{}
	var ref *refGraph
	if r.cfg.Traced {
		id := r.sp.begin("reference_build", -1)
		ref = buildRef(r.w.Spec, rmatSeed(r.cfg.Seed))
		r.sp.end(id)
		chk.refMiB = ref.mib()
	}
	digest := newHasher()
	r.want = make([]uint64, len(r.ops))
	pid := r.sp.begin("pass", -1)
	for i := range r.ops {
		o := &r.ops[i]
		oid := r.sp.begin("op", i)
		id := r.sp.begin("run", i)
		r.eng.Run(o, &r.out)
		r.sp.end(id)
		r.res.Attempted++
		r.want[i] = r.out.Sig
		digest.u64(r.out.Sig)
		chk.virtNs = append(chk.virtNs, r.out.VirtNs...)
		chk.virtTEPS = append(chk.virtTEPS, r.out.VirtTEPS...)
		if r.cfg.Traced {
			chk.leds = append(chk.leds, r.eng.Ledger(o))
		}
		if r.cfg.Corrupt && i == 0 && !r.eng.CorruptRoot(o) {
			return nil, fmt.Errorf("bench: workload %s hands out parent copies only; run the corruption self-test on another", r.w.Name)
		}
		id = r.sp.begin("validate", i)
		err := r.eng.Validate(o)
		r.sp.end(id)
		r.eng.HashParents(&digest)
		if err == nil && ref != nil && i < depthChecks {
			id = r.sp.begin("depth_check", i)
			err = r.depthCheck(o, ref, chk)
			r.sp.end(id)
		}
		if err != nil {
			r.fail(i, err)
		}
		r.sp.end(oid)
	}
	r.sp.end(pid)
	r.res.VirtDigest = fmt.Sprintf("%016x", uint64(digest))
	return chk, nil
}

func (r *workloadRun) depthCheck(o *op, ref *refGraph, chk *checked) error {
	root, got := r.eng.Depths(o)
	t0 := time.Now()
	want, edges := ref.bfs(root)
	chk.refMs = append(chk.refMs, msSince(t0))
	chk.refEdges += edges
	for v := range want {
		if got[v] != want[v] {
			return fmt.Errorf("root %d: vertex %d at depth %d, serial reference says %d", root, v, got[v], want[v])
		}
	}
	return nil
}

// plainPass walks the op list once, timing each op. With a span
// recorder it is the traced pass; with nil nothing records.
func (r *workloadRun) plainPass(sp *spanRec) pass {
	p := pass{opMs: make([]float64, len(r.ops))}
	runtime.GC()
	m0 := mallocs()
	pid := sp.begin("pass", -1)
	t0 := time.Now()
	for i := range r.ops {
		oid := sp.begin("op", i)
		id := sp.begin("run", i)
		s := time.Now()
		r.eng.Run(&r.ops[i], &r.out)
		p.opMs[i] = msSince(s)
		sp.end(id)
		sp.end(oid)
		p.edges += r.out.Edges
		r.res.Attempted++
		if r.out.Sig != r.want[i] {
			r.fail(i, fmt.Errorf("virtual results differ from the check pass (signature %016x, want %016x)", r.out.Sig, r.want[i]))
		}
	}
	p.wall = time.Since(t0)
	sp.end(pid)
	p.allocs = mallocs() - m0
	return p
}

// endToEnd derives the end-to-end metrics from the set-ups, the plain
// passes and the check pass's virtual results.
func (r *workloadRun) endToEnd(setups []float64, passes []pass, chk *checked) {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	runtime.KeepAlive(r.eng) // the runner is part of the live heap being reported

	var opMs, teps, p50s, p90s, allocs []float64
	var totalAllocs uint64
	for _, p := range passes {
		opMs = append(opMs, p.opMs...)
		teps = append(teps, p.teps())
		p50s = append(p50s, percentile(p.opMs, 50))
		p90s = append(p90s, percentile(p.opMs, 90))
		allocs = append(allocs, float64(p.allocs)/float64(len(r.ops)))
		totalAllocs += p.allocs
	}
	virtMs := make([]float64, len(chk.virtNs))
	for i, ns := range chk.virtNs {
		virtMs[i] = ns / 1e6
	}
	vals := map[string]metricValue{
		"setup_s":            {Value: median(setups), Samples: setups},
		"host_teps":          {Value: median(teps), Samples: teps},
		"host_op_ms_p50":     {Value: percentile(opMs, 50), N: len(opMs), Samples: p50s},
		"host_op_ms_p90":     {Value: percentile(opMs, 90), N: len(opMs), Samples: p90s},
		"host_allocs_per_op": {Value: float64(totalAllocs) / float64(len(opMs)), Samples: allocs},
		"host_live_heap_mb":  {Value: float64(ms.HeapAlloc) / (1 << 20)},
		"virt_teps_hmean":    {Value: harmonicMean(chk.virtTEPS), N: len(chk.virtTEPS)},
		"virt_op_ms_p50":     {Value: percentile(virtMs, 50), N: len(virtMs)},
		"virt_op_ms_p95":     {Value: percentile(virtMs, 95), N: len(virtMs)},
	}
	r.res.EndToEnd = finish(endToEnd, vals)
}

// finish stamps the registry's units onto measured values; a registry
// metric that was not measured reads 0.
func finish(defs []metricDef, vals map[string]metricValue) map[string]metricValue {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v := vals[d.Name]
		v.Unit = d.Unit
		out[d.Name] = v
	}
	return out
}

// perLayer measures the per-layer ledger.
func (r *workloadRun) perLayer(passes []pass, chk *checked) error {
	vals := map[string]metricValue{}
	set := func(name string, v float64) { vals[name] = metricValue{Value: v} }

	walls, teps := make([]float64, len(passes)), make([]float64, len(passes))
	for i, p := range passes {
		walls[i], teps[i] = p.wall.Seconds(), p.teps()
	}
	plainWall, hostTEPS := median(walls), median(teps)

	// One pass under the CPU profile, with the harness's spans on.
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return fmt.Errorf("bench: cpu profile: %w", err)
	}
	traced := r.plainPass(r.sp)
	pprof.StopCPUProfile()
	stacks, err := parseProfile(prof.Bytes())
	if err != nil {
		return err
	}
	sh := attribute(stacks)
	r.logf("traced pass: %d profile samples", sh.Samples)
	for _, l := range cpuLayers {
		set(l+".cpu_self_share", sh.Self[l])
		set(l+".cpu_incl_share", sh.Incl[l])
	}
	set("runtime.gc_share", sh.GC)
	set("runtime.other_share", sh.Other)
	set("bench.trace_overhead_frac", traced.wall.Seconds()/plainWall-1)
	for _, d := range endToEnd {
		if d.Demoted {
			set("bench."+d.Name, r.res.EndToEnd[d.Name].Value)
		}
	}

	// Exact counts of the check pass, as means per op.
	var sum ledger
	for _, l := range chk.leds {
		sum.merge(l)
	}
	nOps := float64(len(r.ops))
	const mib = 1 << 20
	set("simnet.msgs_per_op", float64(sum.Msgs)/nOps)
	set("simnet.inter_mib_per_op", float64(sum.InterBytes)/mib/nOps)
	set("simnet.intra_mib_per_op", float64(sum.IntraBytes)/mib/nOps)
	set("simnet.raw_inter_mib_per_op", float64(sum.RawInterBytes)/mib/nOps)
	set("mpi.host_ns_per_msg", plainWall*1e9/float64(sum.Msgs))
	ratio := 1.0 // nothing went through a codec
	if sum.WireBytes > 0 {
		ratio = float64(sum.WireRaw) / float64(sum.WireBytes)
	}
	set("wire.ratio", ratio)
	for i := range sum.PhaseNs {
		set("trace.virt_us."+phaseName(i), sum.PhaseNs[i]/1e3/nOps)
	}
	set("trace.overlap_exposed_us", sum.OverlapExposedNs/1e3/nOps)
	set("trace.levels_td", float64(sum.LevelsTD)/nOps)
	set("trace.levels_bu", float64(sum.LevelsBU)/nOps)

	set("graph.csr_mib", chk.refMiB)
	if len(chk.refMs) > 0 {
		set("graph.reference_bfs_ms", mean(chk.refMs))
		refTEPS := float64(chk.refEdges) / (mean(chk.refMs) * float64(len(chk.refMs)) / 1e3)
		set("graph.sim_overhead_x", refTEPS/hostTEPS)
	}
	self, count := r.sp.selfNs()
	set("graph500.validate_ms_per_op", float64(self["validate"])/1e6/float64(count["validate"]))

	if r.w.StreamQueries > 0 {
		set("queryserv.mean_fill", float64(sum.Queries)/float64(sum.Batches))
		set("queryserv.batches_per_stream", float64(sum.Batches)/nOps)
		set("queryserv.rounds_per_query", float64(sum.Rounds)/float64(sum.Queries))
		set("queryserv.admit_wait_ms_p50", median(sum.AdmitWaitNs)/1e6)
		set("queryserv.served_qps", sum.ServedQPS/nOps)
		r.saturation(set)
	}

	// The simulator's own recorder, attached last: it cannot be detached.
	tap := r.eng.AttachObs()
	withObs := r.plainPass(nil)
	set("obs.host_overhead_frac", withObs.wall.Seconds()/plainWall-1)
	set("obs.spans_per_op", float64(tap.spans())/nOps)
	exportMs, err := tap.exportMs()
	if err != nil {
		return fmt.Errorf("bench: obs export: %w", err)
	}
	set("obs.export_ms", exportMs)

	probes := r.cfg.Probes
	if probes == nil {
		probes = map[string]float64{}
		substrateProbes(func(name string, v float64) { probes[name] = v })
	}
	for name, v := range probes {
		set(name, v)
	}
	r.res.PerLayer = finish(perLayer, vals)
	return nil
}

// Saturation probes: short streams at fixed absolute rates, never
// calibrated from the code under test.
const (
	satQueries  = 1024
	satLimitMs  = 5.0 // latency limit on the p95
	satBacklogX = 1.5 // last-quarter mean latency over first-quarter: a growing backlog
)

var satRungs = []float64{10000, 20000, 30000, 40000, 50000, 60000}

// saturation reports the highest rung that meets the latency limit
// without a growing backlog, and the p95 at the top rung.
func (r *workloadRun) saturation(set func(string, float64)) {
	sat := 0.0
	for i, qps := range satRungs {
		o := op{Queries: r.w.poissonStream(r.eng.HasEdge, satQueries, qps, r.cfg.Seed, 1000+i)}
		r.eng.Run(&o, &r.out)
		lat := r.out.VirtNs // in arrival order
		q := len(lat) / 4
		p95 := percentile(lat, 95) / 1e6
		if p95 <= satLimitMs && mean(lat[len(lat)-q:]) <= satBacklogX*mean(lat[:q]) {
			sat = qps
		}
		if i == len(satRungs)-1 {
			set("queryserv.p95_ms.at60k", p95)
		}
	}
	set("queryserv.sat_qps", sat)
}

// finite reports whether every value of the result is a finite number.
func (res *workloadResult) finite() error {
	for _, m := range []map[string]metricValue{res.EndToEnd, res.PerLayer} {
		for name, v := range m {
			if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
				return fmt.Errorf("bench: %s/%s is %v", res.Name, name, v.Value)
			}
		}
	}
	return nil
}
