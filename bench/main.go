// Command bench is the repository's benchmark: five fixed workloads over
// the simulator, each measured on two clocks (virtual time: what the
// modelled cluster would take; host time: what the simulator takes) end
// to end and layer by layer. See README.md.
//
//	bench --workload scan2 --seed 1 --seconds 8 --trace 0   one workload, end-to-end metrics
//	bench --workload scan2 --seed 1 --seconds 8 --trace 1   one workload, per-layer ledger
//	bench -out bench/out/result.json                        the whole suite, both parts
//	bench -compare A.json B.json                            two suite results, metric by metric
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// resultFile is what -out writes and -compare reads.
type resultFile struct {
	Commit     string                 `json:"commit"`
	GoVersion  string                 `json:"go_version"`
	NProc      int                    `json:"nproc"`
	GOMAXPROCS int                    `json:"gomaxprocs"`
	Seed       uint64                 `json:"seed"`
	Note       string                 `json:"note"`
	Workloads  []*workloadResult      `json:"workloads"`
	Suite      map[string]metricValue `json:"suite,omitempty"`
}

const modelNote = "virtual times come from a machine model that is calibrated, not validated against hardware: no error figure is given"

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name      = fs.String("workload", "", "workload to run; empty runs the whole suite, both parts")
		seed      = fs.Uint64("seed", 1, "seed every input derives from")
		seconds   = fs.Float64("seconds", runSeconds, "how long the timed passes of a workload last")
		traceMode = fs.Int("trace", 0, "with -workload: 0 measures the end-to-end metrics, 1 the per-layer ledger")
		passes    = fs.Int("passes", 0, "run this many timed passes instead of -seconds' worth")
		outPath   = fs.String("out", "", "write the results, with samples and environment, to this JSON file")
		compare   = fs.Bool("compare", false, "compare two -out files: bench -compare A.json B.json")
		printJSON = fs.Bool("print-benchmark-json", false, "print BENCHMARK.json as the metric registry defines it")
		printMD   = fs.Bool("print-metric-tables", false, "print the metric registry as README.md's markdown tables")
		corrupt   = fs.Bool("selftest-corrupt", false, "self-test: corrupt one parent entry of op 0; the run must fail")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, err)
		return 1
	}
	switch {
	case *printJSON:
		b, err := benchmarkJSON()
		if err != nil {
			return fail(err)
		}
		stdout.Write(b)
		return 0
	case *printMD:
		io.WriteString(stdout, metricTables())
		return 0
	case *compare:
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: bench -compare A.json B.json")
			return 2
		}
		worse, err := compareFiles(fs.Arg(0), fs.Arg(1), stdout)
		if err != nil {
			return fail(err)
		}
		if worse {
			return 1
		}
		return 0
	}
	if fs.NArg() != 0 || (*traceMode != 0 && *traceMode != 1) {
		fmt.Fprintln(stderr, "bench: unexpected arguments; see -help")
		return 2
	}

	nproc := runtime.NumCPU()
	runtime.GOMAXPROCS(min(nproc, 4))
	file := &resultFile{
		GoVersion: runtime.Version(), NProc: nproc, GOMAXPROCS: runtime.GOMAXPROCS(0),
		Seed: *seed, Note: modelNote,
	}
	fmt.Fprintf(stderr, "# %s, nproc %d, GOMAXPROCS %d, seed %d\n# %s\n", file.GoVersion, nproc, file.GOMAXPROCS, *seed, modelNote)

	cfg := runConfig{Seed: *seed, Seconds: *seconds, Passes: *passes, Corrupt: *corrupt, Log: stderr}
	spanDir := filepath.Join("bench", "out")
	ok := true
	runOne := func(w workload, cfg runConfig) error {
		if cfg.Traced {
			if err := os.MkdirAll(spanDir, 0o755); err != nil {
				return err
			}
			cfg.SpanPath = filepath.Join(spanDir, w.Name+".spans.jsonl")
		}
		res, err := runWorkload(w, cfg)
		if err != nil {
			return err
		}
		if err := res.finite(); err != nil {
			return err
		}
		file.Workloads = append(file.Workloads, res)
		for _, e := range res.Errors {
			fmt.Fprintf(stderr, "# %s: FAILED %s\n", w.Name, e)
		}
		ok = ok && res.Failed == 0
		// The driver reads the last line: one part's metrics per run,
		// exactly the ones BENCHMARK.json lists for that part.
		metrics := res.PerLayer
		if cfg.Untraced {
			metrics = map[string]metricValue{}
			for _, d := range endToEnd {
				if !d.Demoted {
					metrics[d.Name] = res.EndToEnd[d.Name]
				}
			}
		}
		printMetrics(stdout, w.Name, res.PerLayer)
		printMetrics(stdout, w.Name, res.EndToEnd)
		return printSummary(stdout, res, metrics)
	}

	if *name != "" {
		w, err := workloadByName(*name)
		if err != nil {
			return fail(err)
		}
		cfg.Untraced, cfg.Traced = *traceMode == 0, *traceMode == 1
		if err := runOne(w, cfg); err != nil {
			return fail(err)
		}
	} else {
		cfg.Untraced, cfg.Traced = true, true
		cfg.Probes = map[string]float64{}
		substrateProbes(func(n string, v float64) { cfg.Probes[n] = v })
		for _, w := range workloads {
			if err := runOne(w, cfg); err != nil {
				return fail(err)
			}
		}
		suite, err := suiteMetrics(file.Workloads)
		if err != nil {
			return fail(err)
		}
		file.Suite = suite
		printMetrics(stdout, "suite", suite)
	}

	if *outPath != "" {
		file.Commit = gitCommit()
		b, err := json.MarshalIndent(file, "", " ")
		if err != nil {
			return fail(err)
		}
		if err := os.MkdirAll(filepath.Dir(*outPath), 0o755); err != nil {
			return fail(err)
		}
		if err := os.WriteFile(*outPath, append(b, '\n'), 0o644); err != nil {
			return fail(err)
		}
	}
	if !ok {
		fmt.Fprintln(stderr, "bench: some ops failed their checks")
		return 1
	}
	return 0
}

// printMetrics prints every metric by name, with its unit.
func printMetrics(w io.Writer, scope string, m map[string]metricValue) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		v := m[n]
		extra := ""
		if v.N > 0 {
			extra = fmt.Sprintf("  (n=%d)", v.N)
		}
		fmt.Fprintf(w, "%-12s %-44s %18.6g %s%s\n", scope, n, v.Value, v.Unit, extra)
	}
}

// printSummary prints the driver's result line.
func printSummary(w io.Writer, res *workloadResult, metrics map[string]metricValue) error {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{Correct: res.Failed == 0, Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]mv{}}
	for n, v := range metrics {
		line.Metrics[n] = mv{v.Value, v.Unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// suiteMetrics derives the numbers that span workloads.
func suiteMetrics(results []*workloadResult) (map[string]metricValue, error) {
	virt := func(workload, metric string) float64 {
		for _, r := range results {
			if r.Name == workload {
				return r.EndToEnd[metric].Value
			}
		}
		return 0
	}
	vals := map[string]metricValue{
		"ladder.top_over_raw": {Value: virt("comm16-top", "virt_teps_hmean") / virt("comm16-raw", "virt_teps_hmean")},
	}
	measured2D := virt("grid2d", "virt_op_ms_p50") < virt("comm16-top", "virt_op_ms_p50")
	picks := 0.0
	if selectEngine().Use2D == measured2D {
		picks = 1
	}
	vals["engine.picks_measured_winner"] = metricValue{Value: picks}
	secs, err := fig9HostSeconds()
	if err != nil {
		return nil, fmt.Errorf("bench: fig9: %w", err)
	}
	vals["experiments.fig9_host_s"] = metricValue{Value: secs}
	return finish(suiteOnly, vals), nil
}

// gitCommit names the commit measured, when the checkout is a git one.
func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}
