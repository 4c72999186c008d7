// Command bfsbench regenerates the paper's tables and figures on the
// simulated NUMA cluster. Each -fig flag value selects one experiment;
// "all" runs the full evaluation.
//
// Usage:
//
//	bfsbench -fig 9 -scale 16 -roots 8
//	bfsbench -fig all -scale 14 -roots 2 -parallel 8
//	bfsbench -fig 11 -timeline run.jsonl -metrics
//	bfsbench -fig 10 -cpuprofile cpu.pprof -cell-ledger -
//	bfsbench -fig table1
//
// -timeline is the one observability export; obsdiff renders it
// (obsdiff report|chrome|html|prom run.jsonl) and diffs two of them.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync"
	"time"

	"numabfs/internal/chassis"
	"numabfs/internal/experiments"
	"numabfs/internal/fault"
	"numabfs/internal/graph500"
	"numabfs/internal/machine"
	"numabfs/internal/obs"
)

// benchRecord is one experiment's entry in a -bench-json file: the
// driver key, the host wall-clock it took, and the full table so byte
// and TEPS columns can be diffed between commits.
type benchRecord struct {
	Fig    string             `json:"fig"`
	HostNs int64              `json:"host_ns"`
	Table  *experiments.Table `json:"table"`
}

// benchFile is the regression-baseline format written by -bench-json.
// Comparing a fresh file against a committed BENCH_<date>.json shows
// host-time drift (harness regressions) and any change in the modelled
// tables (simulation regressions).
type benchFile struct {
	Date      string        `json:"date"`
	GoVersion string        `json:"go_version"`
	Scale     int           `json:"scale"`
	Roots     int           `json:"roots"`
	Records   []benchRecord `json:"records"`
}

// driverFor returns the figure registered under key, or nil.
func driverFor(key string) *experiments.Figure {
	for i := range experiments.Figures {
		if experiments.Figures[i].Key == key {
			return &experiments.Figures[i]
		}
	}
	return nil
}

// benchCheck reruns the experiments recorded in a -bench-json baseline
// (at the baseline's scale and roots) and compares every table value at
// 1e-9 relative tolerance. A value drift is a simulation regression and
// fails the check; host wall-clock drift is only reported — it varies
// with the machine. Returns the number of drifted experiments.
func benchCheck(path string, want []string, weak bool, parallel int, ledger *experiments.Ledger, hostBudget float64) (int, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	var bf benchFile
	if err := json.Unmarshal(data, &bf); err != nil {
		return 0, fmt.Errorf("%s: %w", path, err)
	}
	spec := experiments.Spec{BaseScale: bf.Scale, Roots: bf.Roots, WeakNode: weak,
		Cache: chassis.NewGraphCache(), Parallel: parallel, Ledger: ledger}
	match := func(key string) bool {
		for _, w := range want {
			if w == "all" || w == key {
				return true
			}
		}
		return false
	}
	drifted := 0
	checked := 0
	var hostTotal, baseTotal int64
	for _, rec := range bf.Records {
		if !match(rec.Fig) {
			continue
		}
		d := driverFor(rec.Fig)
		if d == nil {
			fmt.Fprintf(os.Stderr, "bfsbench: bench-check: baseline fig %q has no driver, skipping\n", rec.Fig)
			continue
		}
		start := time.Now()
		got, err := d.Run(spec)
		if err != nil {
			return drifted, fmt.Errorf("fig %w", err)
		}
		host := time.Since(start)
		checked++
		hostTotal += host.Nanoseconds()
		baseTotal += rec.HostNs
		if diff := tableDiff(rec.Table, got); diff != "" {
			drifted++
			fmt.Printf("FAIL fig %-14s %s\n", rec.Fig, diff)
			continue
		}
		ratio := float64(host.Nanoseconds()) / float64(rec.HostNs)
		fmt.Printf("ok   fig %-14s values match; host time %.2fs vs baseline %.2fs (x%.2f)\n",
			rec.Fig, host.Seconds(), float64(rec.HostNs)/1e9, ratio)
	}
	if checked == 0 {
		return 0, fmt.Errorf("no baseline experiment matched -fig %s", strings.Join(want, ","))
	}
	if hostBudget > 0 {
		ratio := float64(hostTotal) / float64(baseTotal)
		fmt.Printf("host budget: %.2fs vs baseline %.2fs (x%.2f, budget x%.2f)\n",
			float64(hostTotal)/1e9, float64(baseTotal)/1e9, ratio, hostBudget)
		if ratio > hostBudget {
			return drifted, fmt.Errorf("host time x%.2f exceeds the x%.2f budget (harness wall-clock regression)", ratio, hostBudget)
		}
	}
	return drifted, nil
}

// tableDiff compares two tables cell by cell at 1e-9 relative tolerance
// and returns a description of the first difference, or "".
func tableDiff(want, got *experiments.Table) string {
	if want == nil || got == nil {
		return "missing table"
	}
	if len(want.Rows) != len(got.Rows) {
		return fmt.Sprintf("row count %d vs baseline %d", len(got.Rows), len(want.Rows))
	}
	for i, wr := range want.Rows {
		gr := got.Rows[i]
		if wr.Label != gr.Label {
			return fmt.Sprintf("row %d label %q vs baseline %q", i, gr.Label, wr.Label)
		}
		if len(wr.Values) != len(gr.Values) {
			return fmt.Sprintf("row %q has %d values vs baseline %d", wr.Label, len(gr.Values), len(wr.Values))
		}
		for j, wv := range wr.Values {
			gv := gr.Values[j]
			diff := gv - wv
			if diff < 0 {
				diff = -diff
			}
			scale := wv
			if scale < 0 {
				scale = -scale
			}
			if scale < 1 {
				scale = 1
			}
			if diff > 1e-9*scale {
				return fmt.Sprintf("row %q col %d: %v vs baseline %v", wr.Label, j, gv, wv)
			}
		}
	}
	return ""
}

// obsFlags gathers the observability output settings for validation.
type obsFlags struct {
	metrics    bool
	timeline   string
	benchCheck bool
}

// validateObsFlags returns the usage errors in an output-flag
// combination; any error means exit 2, like an unknown -fig key.
func validateObsFlags(f obsFlags) []string {
	if !f.benchCheck {
		return nil
	}
	const why = " cannot be combined with -bench-check (the check runs no exportable experiment)"
	var errs []string
	if f.timeline != "" {
		errs = append(errs, "-timeline"+why)
	}
	if f.metrics {
		errs = append(errs, "-metrics"+why)
	}
	return errs
}

// batchFlags gathers the MS-BFS batching flags for validation.
type batchFlags struct {
	batch         int
	fillTimeoutNs float64
	batchSet      bool // -batch given explicitly
	fillSet       bool // -fill-timeout-ns given explicitly
	figs          []string
}

// validateBatchFlags returns the usage errors in an MS-BFS flag
// combination; any error means exit 2, like an unknown -fig key.
func validateBatchFlags(f batchFlags) []string {
	var errs []string
	if f.batch < 1 || f.batch > 64 {
		errs = append(errs, fmt.Sprintf("-batch %d outside [1, 64]: a batch is at most one uint64 of lanes", f.batch))
	}
	if f.fillTimeoutNs < 0 {
		errs = append(errs, "-fill-timeout-ns must be non-negative (0 derives the timeout from the batch duration)")
	}
	usesBatch := false
	for _, w := range f.figs {
		if w == "all" || w == "msbfs" || w == "msbfs-load" {
			usesBatch = true
		}
	}
	if !usesBatch {
		if f.batchSet {
			errs = append(errs, "-batch has no effect without -fig msbfs or msbfs-load")
		}
		if f.fillSet {
			errs = append(errs, "-fill-timeout-ns has no effect without -fig msbfs or msbfs-load")
		}
	}
	return errs
}

// figKeys returns every valid -fig value, including the special keys
// that select no driver ("table1") or all of them ("all").
func figKeys() []string {
	keys := make([]string, 0, len(experiments.Figures)+2)
	for _, f := range experiments.Figures {
		keys = append(keys, f.Key)
	}
	return append(keys, "table1", "all")
}

// unknownFigs returns the requested keys that are not valid -fig values,
// preserving request order.
func unknownFigs(want []string) []string {
	valid := make(map[string]bool)
	for _, k := range figKeys() {
		valid[k] = true
	}
	var bad []string
	for _, w := range want {
		if !valid[w] {
			bad = append(bad, w)
		}
	}
	return bad
}

// loadFaultPlan reads and strictly decodes a -fault plan file: unknown
// fields and trailing data are errors, so a typoed knob ("permanant",
// "detect_timeout") fails the run with a diagnostic instead of silently
// injecting a different plan than the one the user thought they wrote.
func loadFaultPlan(path string) (*fault.Plan, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var plan fault.Plan
	if err := dec.Decode(&plan); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if dec.More() {
		return nil, fmt.Errorf("%s: trailing data after the fault plan", path)
	}
	return &plan, nil
}

func main() {
	def := experiments.Default()
	fig := flag.String("fig", "all", "figure to reproduce: "+strings.Join(figKeys(), ","))
	scale := flag.Int("scale", def.BaseScale, "graph scale at one node (weak scaling adds log2(nodes))")
	roots := flag.Int("roots", def.Roots, "BFS roots per configuration (Graph500 uses 64)")
	validate := flag.Bool("validate", false, "validate every BFS tree (slow)")
	weak := flag.Bool("weaknode", true, "model the testbed's one weak node in 16-node runs")
	jsonOut := flag.String("json", "", "also write the tables as JSON to this file")
	metrics := flag.Bool("metrics", false, "print the aggregated observability report (per-phase time, message counts by hop, barrier waits, critical path)")
	timelineOut := flag.String("timeline", "", "write the timeline of every run (spans, counters, gauges) as a JSONL event stream to this file; obsdiff renders it (report, chrome, html, prom) and diffs two of them")
	benchJSON := flag.String("bench-json", "", "time each selected experiment and write a regression baseline (BENCH_<date>.json) to this file")
	faultFile := flag.String("fault", "", "apply a deterministic fault plan (JSON, see internal/fault.Plan) to every run")
	benchCheckFile := flag.String("bench-check", "", "rerun the experiments in a -bench-json baseline at its recorded scale/roots and fail on any table-value drift")
	parallel := flag.Int("parallel", runtime.GOMAXPROCS(0), "host-parallel cell width: how many benchmark cells run concurrently (1 = sequential; every width produces bit-identical tables and exports)")
	cpuProfile := flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
	memProfile := flag.String("memprofile", "", "write a pprof heap profile taken after the run to this file")
	cellLedger := flag.String("cell-ledger", "", `write the per-cell host wall-clock ledger to this file ("-" for stdout)`)
	hostBudget := flag.Float64("host-budget", 0, "with -bench-check: fail if total host time exceeds this multiple of the baseline's (0 disables)")
	batch := flag.Int("batch", 64, "MS-BFS lanes per batch for -fig msbfs/msbfs-load (1..64)")
	fillTimeout := flag.Float64("fill-timeout-ns", 0, "query-server fill timeout in virtual ns for -fig msbfs-load (0 = 2x the calibrated batch duration)")
	flag.Parse()

	want := strings.Split(*fig, ",")
	if bad := unknownFigs(want); len(bad) != 0 {
		quoted := make([]string, len(bad))
		for i, b := range bad {
			quoted[i] = fmt.Sprintf("%q", b)
		}
		fmt.Fprintf(os.Stderr, "bfsbench: unknown -fig value(s) %s; valid keys: %s\n",
			strings.Join(quoted, ","), strings.Join(figKeys(), ","))
		os.Exit(2)
	}
	batchSet, fillSet := false, false
	flag.Visit(func(fl *flag.Flag) {
		switch fl.Name {
		case "batch":
			batchSet = true
		case "fill-timeout-ns":
			fillSet = true
		}
	})
	errs := validateObsFlags(obsFlags{
		metrics: *metrics, timeline: *timelineOut, benchCheck: *benchCheckFile != "",
	})
	errs = append(errs, validateBatchFlags(batchFlags{
		batch: *batch, fillTimeoutNs: *fillTimeout,
		batchSet: batchSet, fillSet: fillSet, figs: want,
	})...)
	if len(errs) != 0 {
		for _, e := range errs {
			fmt.Fprintf(os.Stderr, "bfsbench: %s\n", e)
		}
		os.Exit(2)
	}
	if *hostBudget != 0 && *benchCheckFile == "" {
		fmt.Fprintln(os.Stderr, "bfsbench: -host-budget only applies with -bench-check (the budget is relative to the baseline's host times)")
		os.Exit(2)
	}
	if *parallel < 1 {
		fmt.Fprintln(os.Stderr, "bfsbench: -parallel must be at least 1")
		os.Exit(2)
	}
	if *roots < 1 {
		fmt.Fprintln(os.Stderr, "bfsbench: -roots must be at least 1")
		os.Exit(2)
	}

	// Profiles stop/write exactly once, whether main falls off the end,
	// returns from the bench-check path, or exits on a failed check.
	var profOnce sync.Once
	stopProfiles := func() {
		profOnce.Do(func() {
			if *cpuProfile != "" {
				pprof.StopCPUProfile()
				fmt.Fprintf(os.Stderr, "bfsbench: wrote CPU profile to %s\n", *cpuProfile)
			}
			if *memProfile != "" {
				f, err := os.Create(*memProfile)
				if err != nil {
					fmt.Fprintf(os.Stderr, "bfsbench: memprofile: %v\n", err)
					return
				}
				defer f.Close()
				runtime.GC()
				if err := pprof.WriteHeapProfile(f); err != nil {
					fmt.Fprintf(os.Stderr, "bfsbench: memprofile: %v\n", err)
					return
				}
				fmt.Fprintf(os.Stderr, "bfsbench: wrote heap profile to %s\n", *memProfile)
			}
		})
	}
	defer stopProfiles()
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bfsbench: cpuprofile: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "bfsbench: cpuprofile: %v\n", err)
			os.Exit(1)
		}
	}

	var ledger *experiments.Ledger
	if *cellLedger != "" {
		ledger = experiments.NewLedger()
	}
	writeLedger := func() {
		if ledger == nil {
			return
		}
		if *cellLedger == "-" {
			fmt.Print(ledger.String())
			return
		}
		if err := os.WriteFile(*cellLedger, []byte(ledger.String()), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "bfsbench: cell-ledger: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "bfsbench: wrote cell ledger to %s\n", *cellLedger)
	}

	if *benchCheckFile != "" {
		drifted, err := benchCheck(*benchCheckFile, want, *weak, *parallel, ledger, *hostBudget)
		writeLedger()
		stopProfiles()
		if err != nil {
			fmt.Fprintf(os.Stderr, "bfsbench: bench-check: %v\n", err)
			os.Exit(1)
		}
		if drifted != 0 {
			fmt.Fprintf(os.Stderr, "bfsbench: bench-check: %d experiment(s) drifted from %s\n", drifted, *benchCheckFile)
			os.Exit(1)
		}
		return
	}

	spec := experiments.Spec{
		BaseScale: *scale,
		Roots:     *roots,
		Validate:  *validate,
		WeakNode:  *weak,
		Cache:     chassis.NewGraphCache(),
		Parallel:  *parallel,
		Ledger:    ledger,

		Batch:         *batch,
		FillTimeoutNs: *fillTimeout,
	}
	if *metrics || *timelineOut != "" {
		spec.Obs = obs.NewRecorder()
	}
	if *timelineOut != "" {
		spec.SampleNs = obs.DefaultSampleNs
	}
	if *faultFile != "" {
		plan, err := loadFaultPlan(*faultFile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bfsbench: fault plan: %v\n", err)
			os.Exit(2)
		}
		spec.Faults = plan
	}

	match := func(key string) bool {
		for _, w := range want {
			if w == "all" || w == key {
				return true
			}
		}
		return false
	}

	if match("table1") {
		fmt.Println("Table I — node configuration")
		fmt.Print(machine.TableI().Table1String())
		fmt.Println()
	}
	var tables []*experiments.Table
	var records []benchRecord
	for _, f := range experiments.Figures {
		if !match(f.Key) {
			continue
		}
		start := time.Now()
		t, err := f.Run(spec)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bfsbench: fig %v\n", err)
			if errors.Is(err, graph500.ErrTooManyRoots) {
				os.Exit(2) // a bad -roots/-batch value, not a failed run
			}
			os.Exit(1)
		}
		fmt.Println(t.String())
		tables = append(tables, t)
		if *benchJSON != "" {
			records = append(records, benchRecord{Fig: f.Key, HostNs: time.Since(start).Nanoseconds(), Table: t})
		}
	}
	writeLedger()
	if *jsonOut != "" {
		data, err := json.MarshalIndent(tables, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "bfsbench: json: %v\n", err)
			os.Exit(1)
		}
		if err := os.WriteFile(*jsonOut, data, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "bfsbench: %v\n", err)
			os.Exit(1)
		}
	}
	if *benchJSON != "" {
		bf := benchFile{
			Date:      time.Now().Format("2006-01-02"),
			GoVersion: runtime.Version(),
			Scale:     *scale,
			Roots:     *roots,
			Records:   records,
		}
		data, err := json.MarshalIndent(bf, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "bfsbench: bench-json: %v\n", err)
			os.Exit(1)
		}
		if err := os.WriteFile(*benchJSON, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "bfsbench: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "bfsbench: wrote bench baseline to %s\n", *benchJSON)
	}
	if *metrics {
		fmt.Print(spec.Obs.Dump().Report().String())
		hits, misses := spec.Cache.Stats()
		fmt.Printf("graph cache: hits=%d misses=%d\n", hits, misses)
	}
	if *timelineOut != "" {
		if err := spec.Obs.WriteTimelineFile(*timelineOut); err != nil {
			fmt.Fprintf(os.Stderr, "bfsbench: timeline: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "bfsbench: wrote timeline JSONL to %s\n", *timelineOut)
	}
}
