// Command graph500 runs the Graph500 benchmark methodology on the
// simulated NUMA cluster: generate an R-MAT graph, build the distributed
// graph, run BFS from 64 roots, validate, and report harmonic-mean TEPS
// with the per-phase breakdown.
//
// Usage:
//
//	graph500 -scale 18 -nodes 4 -policy bind -opt par -g 256 -roots 16 -validate
package main

import (
	"encoding/csv"
	"errors"
	"flag"
	"fmt"
	"os"
	"strconv"

	"numabfs"
	"numabfs/internal/bfs"
	"numabfs/internal/machine"
	"numabfs/internal/obs"
	"numabfs/internal/trace"
)

// writeCSV dumps per-root results: one row per BFS iteration with the
// phase breakdown, ready for plotting.
func writeCSV(path string, perRoot []bfs.RootResult) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := csv.NewWriter(f)
	header := []string{
		"root", "time_ns", "teps", "visited", "traversed_edges", "levels",
		"td_comp_ns", "td_comm_ns", "bu_comp_ns", "bu_comm_ns", "switch_ns", "stall_ns",
	}
	if err := w.Write(header); err != nil {
		f.Close()
		return err
	}
	for _, r := range perRoot {
		b := r.Breakdown
		row := []string{
			strconv.FormatInt(r.Root, 10),
			strconv.FormatFloat(r.TimeNs, 'f', 0, 64),
			strconv.FormatFloat(r.TEPS, 'e', 6, 64),
			strconv.FormatInt(r.Visited, 10),
			strconv.FormatInt(r.TraversedEdges, 10),
			strconv.Itoa(r.Levels),
			strconv.FormatFloat(b.Ns[trace.TDComp], 'f', 0, 64),
			strconv.FormatFloat(b.Ns[trace.TDComm], 'f', 0, 64),
			strconv.FormatFloat(b.Ns[trace.BUComp], 'f', 0, 64),
			strconv.FormatFloat(b.Ns[trace.BUComm], 'f', 0, 64),
			strconv.FormatFloat(b.Ns[trace.Switch], 'f', 0, 64),
			strconv.FormatFloat(b.Ns[trace.Stall], 'f', 0, 64),
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
	nodes := flag.Int("nodes", 1, "cluster nodes")
	paperScale := flag.Int("paperscale", 0, "paper-equivalent scale for machine scaling (0 = scale+12)")
	policy := flag.String("policy", "bind", "placement: noflag | interleave | noflag8 | bind")
	opt := flag.String("opt", "original", "optimization: original | shareinq | shareall | par | compressed | overlap")
	mode := flag.String("mode", "hybrid", "algorithm: hybrid | topdown | bottomup")
	gran := flag.Int64("g", 64, "summary bitmap granularity (multiple of 64)")
	roots := flag.Int("roots", 64, "number of BFS roots")
	validate := flag.Bool("validate", false, "validate every BFS tree")
	seed := flag.Uint64("seed", 0, "graph seed (0 = default)")
	levels := flag.Bool("levels", false, "print the frontier growth curve of the first root")
	csvOut := flag.String("csv", "", "write per-root results as CSV to this file")
	metrics := flag.Bool("metrics", false, "print the aggregated observability report")
	timelineOut := flag.String("timeline", "", "write the run timeline (spans, counters, gauges) as a JSONL event stream to this file; obsdiff renders it (report, chrome, html, prom) and diffs two of them")
	flag.Parse()

	pol, ok := machine.PolicyNames[*policy]
	if !ok {
		fmt.Fprintf(os.Stderr, "graph500: unknown policy %q\n", *policy)
		os.Exit(2)
	}
	opts := numabfs.DefaultOptions()
	opts.Granularity = *gran
	if opts.Opt, ok = bfs.OptNames[*opt]; !ok {
		fmt.Fprintf(os.Stderr, "graph500: unknown optimization %q\n", *opt)
		os.Exit(2)
	}
	if opts.Mode, ok = bfs.ModeNames[*mode]; !ok {
		fmt.Fprintf(os.Stderr, "graph500: unknown mode %q\n", *mode)
		os.Exit(2)
	}

	ps := *paperScale
	if ps == 0 {
		ps = *scale + 12
	}
	cfg := numabfs.ScaledCluster(*scale, ps).WithNodes(*nodes)
	params := numabfs.Graph500Params(*scale)
	if *seed != 0 {
		params = params.WithSeed(*seed)
	}
	if err := params.Validate(); err != nil {
		fmt.Fprintf(os.Stderr, "graph500: %v\n", err)
		os.Exit(2)
	}

	var rec *numabfs.Recorder
	if *metrics || *timelineOut != "" {
		rec = numabfs.NewRecorder()
	}
	bench := numabfs.Benchmark{
		Machine:  cfg,
		Policy:   pol,
		Params:   params,
		Opts:     opts,
		NumRoots: *roots,
		Validate: *validate,
		Obs:      rec,
	}
	if *timelineOut != "" {
		bench.SampleNs = obs.DefaultSampleNs
	}
	res, err := numabfs.Run(bench)
	if err != nil {
		fmt.Fprintf(os.Stderr, "graph500: %v\n", err)
		if errors.Is(err, numabfs.ErrTooManyRoots) {
			os.Exit(2) // a bad -roots value, not a failed run
		}
		os.Exit(1)
	}

	fmt.Printf("graph500 scale=%d nodes=%d ranks=%d policy=%s opt=%s mode=%s g=%d roots=%d\n",
		*scale, *nodes, *nodes*cfg.SocketsPerNode, pol, opts.Opt, opts.Mode, *gran, *roots)
	fmt.Printf("construction:     %10.3f ms (virtual)\n", res.SetupNs/1e6)
	fmt.Printf("harmonic TEPS:    %10.3e\n", res.HarmonicTEPS)
	fmt.Printf("mean TEPS:        %10.3e   (min %.3e, max %.3e)\n", res.MeanTEPS, res.MinTEPS, res.MaxTEPS)
	fmt.Printf("mean time/root:   %10.3f ms (virtual)\n", res.MeanTimeNs/1e6)
	b := res.Breakdown
	fmt.Printf("breakdown (mean): td-comp %.1f%%  td-comm %.1f%%  bu-comp %.1f%%  bu-comm %.1f%%  switch %.1f%%  stall %.1f%%\n",
		100*b.Proportion(trace.TDComp), 100*b.Proportion(trace.TDComm),
		100*b.Proportion(trace.BUComp), 100*b.Proportion(trace.BUComm),
		100*b.Proportion(trace.Switch), 100*b.Proportion(trace.Stall))
	fmt.Printf("levels (mean):    %d top-down + %d bottom-up\n", b.TDLevels, b.BULevels)
	if *validate {
		fmt.Println("validation:       all BFS trees pass the Graph500 checks")
	}
	if *csvOut != "" {
		if err := writeCSV(*csvOut, res.PerRoot); err != nil {
			fmt.Fprintf(os.Stderr, "graph500: csv: %v\n", err)
			os.Exit(1)
		}
	}
	if *metrics {
		fmt.Print(rec.Dump().Report().String())
	}
	if *timelineOut != "" {
		if err := rec.WriteTimelineFile(*timelineOut); err != nil {
			fmt.Fprintf(os.Stderr, "graph500: timeline: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "graph500: wrote timeline JSONL to %s\n", *timelineOut)
	}
	if *levels && len(res.PerRoot) > 0 {
		fmt.Printf("\nfrontier growth (root %d):\n", res.PerRoot[0].Root)
		fmt.Printf("  %5s %-9s %12s %14s %12s\n", "level", "procedure", "frontier", "frontier edges", "ms")
		for _, ls := range res.PerRoot[0].LevelStats {
			proc := "top-down"
			if ls.BottomUp {
				proc = "bottom-up"
			}
			fmt.Printf("  %5d %-9s %12d %14d %12.4f\n", ls.Level, proc, ls.NF, ls.MF, ls.Ns/1e6)
		}
	}
}
