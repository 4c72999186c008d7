// Command obsdiff reads the timeline runs bfsbench and graph500 export
// with -timeline (JSONL event streams). Given two, it attributes the
// total virtual-time delta per phase, per rank, and per session — the
// profiler view of "what did this optimization actually buy". Given a
// renderer and one, it writes that view of the run to stdout: the
// metrics report, a Chrome trace_event file (chrome://tracing or
// Perfetto), a self-contained HTML report, or a Prometheus text
// exposition. Every renderer is a pure function of the timeline.
//
// Usage:
//
//	obsdiff baseline.jsonl candidate.jsonl
//	obsdiff -json baseline.jsonl candidate.jsonl
//	obsdiff report|chrome|html|prom run.jsonl
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"numabfs/internal/obs"
)

// renderers are the one-run subcommands.
var renderers = map[string]func(*obs.Run, io.Writer) error{
	"report": func(run *obs.Run, w io.Writer) error {
		_, err := io.WriteString(w, run.Report().String())
		return err
	},
	"chrome": (*obs.Run).WriteChromeTrace,
	"html":   (*obs.Run).WriteHTMLReport,
	"prom":   (*obs.Run).WritePromText,
}

// isCommand reports whether a first argument names a subcommand rather
// than a timeline file: a renderer name, or a bare word (no dot, no
// path separator) that is not an existing file.
func isCommand(arg string) bool {
	if _, ok := renderers[arg]; ok {
		return true
	}
	if strings.ContainsAny(arg, `./\`) {
		return false
	}
	_, err := os.Stat(arg)
	return err != nil
}

// run is the testable entry point: parses args, writes the diff or the
// rendering to stdout, and returns the process exit code (0 ok, 1
// runtime error, 2 usage error).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("obsdiff", flag.ContinueOnError)
	fs.SetOutput(stderr)
	jsonOut := fs.Bool("json", false, "emit the diff as JSON instead of text")
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: obsdiff [-json] <baseline.jsonl> <candidate.jsonl>")
		fmt.Fprintln(stderr, "       obsdiff report|chrome|html|prom <run.jsonl>")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintf(stderr, "obsdiff: %v\n", err)
		return 1
	}
	if fs.NArg() > 0 && isCommand(fs.Arg(0)) {
		render, ok := renderers[fs.Arg(0)]
		if !ok {
			fmt.Fprintf(stderr, "obsdiff: unknown subcommand %q\n", fs.Arg(0))
			fs.Usage()
			return 2
		}
		if fs.NArg() != 2 || *jsonOut {
			fs.Usage()
			return 2
		}
		r, err := obs.ReadRunFile(fs.Arg(1))
		if err != nil {
			return fail(err)
		}
		if err := render(r, stdout); err != nil {
			return fail(err)
		}
		return 0
	}
	if fs.NArg() != 2 {
		fs.Usage()
		return 2
	}
	a, err := obs.ReadRunFile(fs.Arg(0))
	if err != nil {
		return fail(err)
	}
	b, err := obs.ReadRunFile(fs.Arg(1))
	if err != nil {
		return fail(err)
	}
	d := obs.DiffRuns(a, b)
	if *jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(d); err != nil {
			return fail(err)
		}
		return 0
	}
	fmt.Fprint(stdout, d.String())
	return 0
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}
