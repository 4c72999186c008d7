// Command bfsqd runs the MS-BFS query server on the simulated NUMA
// cluster: a Poisson stream of single-root BFS queries arrives over
// virtual time, the admission policy packs them into batches of up to
// 64 lanes, and each batch traverses once — reporting per-query latency
// and TEPS percentiles, batch fill, and the allgather amortization.
//
// The offered rate is expressed as a multiple of the engine's
// calibrated capacity (lanes per full-batch duration), so the same
// -rate stresses the same operating point at every scale.
//
// Usage:
//
//	bfsqd -scale 16 -nodes 2 -opt compressed -queries 256 -rate 1.5
//	bfsqd -scale 14 -batch 32 -fill-timeout-ns 2e6 -csv queries.csv
package main

import (
	"encoding/csv"
	"flag"
	"fmt"
	"math"
	"os"
	"strconv"

	"numabfs/internal/bfs"
	"numabfs/internal/graph500"
	"numabfs/internal/machine"
	"numabfs/internal/queryserv"
	"numabfs/internal/rmat"
)

// parseOpt maps a -opt name to the optimization level. The overlapped
// allgather is refused: the batched engine gates it out (it pipelines a
// single frontier; see msbfs.ValidateOptions).
func parseOpt(name string) (bfs.Opt, bool) {
	o, ok := bfs.OptNames[name]
	return o, ok && o != bfs.OptOverlapAllgather
}

// qdFlags gathers every bfsqd setting for validation.
type qdFlags struct {
	scale, nodes  int
	policy        string
	opt, mode     string
	gran          int64
	queries       int
	rate          float64
	batch         int
	fillTimeoutNs float64
	seed          uint64
}

// validateFlags returns the usage errors in a flag combination; any
// error means exit 2.
func validateFlags(f qdFlags) []string {
	var errs []string
	if f.scale < 1 {
		errs = append(errs, "-scale must be at least 1")
	}
	if f.nodes < 1 {
		errs = append(errs, "-nodes must be at least 1")
	}
	if _, ok := machine.PolicyNames[f.policy]; !ok {
		errs = append(errs, fmt.Sprintf("unknown policy %q (noflag | interleave | noflag8 | bind)", f.policy))
	}
	if _, ok := parseOpt(f.opt); !ok {
		errs = append(errs, fmt.Sprintf("unknown optimization %q (original | shareinq | shareall | par | compressed; overlap is single-frontier only)", f.opt))
	}
	if _, ok := bfs.ModeNames[f.mode]; !ok {
		errs = append(errs, fmt.Sprintf("unknown mode %q (hybrid | topdown | bottomup)", f.mode))
	}
	if f.gran < 64 || f.gran%64 != 0 {
		errs = append(errs, fmt.Sprintf("-g %d must be a positive multiple of 64", f.gran))
	}
	if f.queries < 1 {
		errs = append(errs, "-queries must be at least 1")
	}
	if !(f.rate > 0) || math.IsInf(f.rate, 0) { // NaN fails every comparison
		errs = append(errs, "-rate must be positive and finite (a multiple of the calibrated full-batch capacity)")
	}
	if f.batch < 1 || f.batch > 64 {
		errs = append(errs, fmt.Sprintf("-batch %d outside [1, 64]: a batch is at most one uint64 of lanes", f.batch))
	}
	if !(f.fillTimeoutNs >= 0) || math.IsInf(f.fillTimeoutNs, 0) {
		errs = append(errs, "-fill-timeout-ns must be non-negative and finite (0 = 2x the calibrated batch duration)")
	}
	if f.seed == 0 {
		errs = append(errs, "-seed must be nonzero (the workload stream is deterministic in it)")
	}
	return errs
}

// writeCSV dumps per-query completions in commit order.
func writeCSV(path string, res *queryserv.Result) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := csv.NewWriter(f)
	header := []string{"id", "root", "arrive_ns", "batch", "lane", "launch_ns", "done_ns", "latency_ns", "traversed_edges", "teps"}
	if err := w.Write(header); err != nil {
		f.Close()
		return err
	}
	for _, c := range res.Completed {
		row := []string{
			strconv.Itoa(c.ID),
			strconv.FormatInt(c.Root, 10),
			strconv.FormatFloat(c.ArriveNs, 'f', 0, 64),
			strconv.Itoa(c.Batch),
			strconv.Itoa(c.Lane),
			strconv.FormatFloat(c.LaunchNs, 'f', 0, 64),
			strconv.FormatFloat(c.DoneNs, 'f', 0, 64),
			strconv.FormatFloat(c.LatencyNs, 'f', 0, 64),
			strconv.FormatInt(c.TraversedEdges, 10),
			strconv.FormatFloat(c.TEPS, 'e', 6, 64),
		}
		if err := w.Write(row); err != nil {
			f.Close()
			return err
		}
	}
	w.Flush()
	if err := w.Error(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func main() {
	scale := flag.Int("scale", 16, "graph scale (log2 of vertex count)")
	nodes := flag.Int("nodes", 2, "cluster nodes")
	policy := flag.String("policy", "bind", "placement: noflag | interleave | noflag8 | bind")
	opt := flag.String("opt", "compressed", "optimization: original | shareinq | shareall | par | compressed")
	mode := flag.String("mode", "hybrid", "algorithm: hybrid | topdown | bottomup")
	gran := flag.Int64("g", 64, "summary bitmap granularity (multiple of 64)")
	queries := flag.Int("queries", 256, "number of root queries in the workload")
	rate := flag.Float64("rate", 1, "offered load as a multiple of the calibrated full-batch capacity")
	batchSz := flag.Int("batch", 64, "admission policy: lanes per batch (1..64)")
	fillTimeout := flag.Float64("fill-timeout-ns", 0, "admission policy: max virtual ns a query waits for lane-mates (0 = 2x the calibrated batch duration)")
	seed := flag.Uint64("seed", 7, "workload stream seed (nonzero; the stream is deterministic in it)")
	csvOut := flag.String("csv", "", "write per-query completions as CSV to this file")
	flag.Parse()

	if errs := validateFlags(qdFlags{
		scale: *scale, nodes: *nodes, policy: *policy, opt: *opt, mode: *mode,
		gran: *gran, queries: *queries, rate: *rate,
		batch: *batchSz, fillTimeoutNs: *fillTimeout, seed: *seed,
	}); len(errs) != 0 {
		for _, e := range errs {
			fmt.Fprintf(os.Stderr, "bfsqd: %s\n", e)
		}
		os.Exit(2)
	}
	pol := machine.PolicyNames[*policy]
	opts := bfs.DefaultOptions()
	opts.Opt = bfs.OptNames[*opt]
	opts.Mode = bfs.ModeNames[*mode]
	opts.Granularity = *gran

	cfg := machine.Scaled(*scale, *scale+12)
	cfg.Nodes = *nodes
	cfg.WeakNode = -1
	params := rmat.Graph500(*scale)
	r, err := graph500.NewBatchRunner(graph500.Config{
		Machine: cfg, Policy: pol, Params: params, Opts: opts,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "bfsqd: %v\n", err)
		os.Exit(1)
	}

	// Calibrate capacity from one full batch of this policy's size, then
	// offer -rate times it.
	calib, err := queryserv.Calibrate(r, *batchSz)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bfsqd: -batch: %v\n", err)
		os.Exit(2)
	}
	fillNs := calib.FillTimeoutNs(*fillTimeout)
	workload := queryserv.PoissonWorkload(*queries, *rate*calib.CapacityQPS, *seed,
		params.NumVertices(), r.HasEdgeGlobal)
	res, err := queryserv.Serve(r, queryserv.Policy{MaxBatch: *batchSz, FillTimeoutNs: fillNs}, workload)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bfsqd: %v\n", err)
		os.Exit(1)
	}

	fmt.Printf("bfsqd scale=%d nodes=%d ranks=%d policy=%s opt=%s mode=%s batch=%d fill-timeout=%.0fns seed=%d\n",
		*scale, *nodes, *nodes*cfg.SocketsPerNode, pol, opts.Opt, opts.Mode, *batchSz, fillNs, *seed)
	fmt.Printf("calibration:      %.3f ms/batch -> capacity %.1f q/s; offered %.2fx = %.1f q/s\n",
		calib.BatchNs/1e6, calib.CapacityQPS, *rate, *rate*calib.CapacityQPS)
	fmt.Printf("served:           %d queries in %d batches (mean fill %.2f lanes)\n",
		len(res.Completed), len(res.Batches), res.MeanBatchFill)
	fmt.Printf("makespan:         %10.3f ms (virtual), throughput %.1f q/s\n",
		res.MakespanNs/1e6, res.ThroughputQPS)
	fmt.Printf("latency ms:       p50 %.3f   p90 %.3f   p95 %.3f   p99 %.3f\n",
		res.LatencyPercentile(50)/1e6, res.LatencyPercentile(90)/1e6,
		res.LatencyPercentile(95)/1e6, res.LatencyPercentile(99)/1e6)
	fmt.Printf("per-query TEPS:   p50 %.3e   p95 %.3e\n",
		res.TEPSPercentile(50), res.TEPSPercentile(95))
	fmt.Printf("allgather rounds: %d total, %.3f per query\n",
		res.AllgatherRounds, float64(res.AllgatherRounds)/float64(len(res.Completed)))
	if *csvOut != "" {
		if err := writeCSV(*csvOut, res); err != nil {
			fmt.Fprintf(os.Stderr, "bfsqd: csv: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "bfsqd: wrote per-query CSV to %s\n", *csvOut)
	}
}
