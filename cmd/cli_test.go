// Package cmd_test drives the built command-line tools end to end.
package cmd_test

import (
	"bytes"
	"errors"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// buildCLIs builds the named command packages into a temporary
// directory and returns it.
func buildCLIs(t *testing.T, pkgs ...string) string {
	t.Helper()
	if testing.Short() {
		t.Skip("builds the CLIs")
	}
	bin := t.TempDir()
	build := exec.Command("go", append([]string{"build", "-o", bin + string(filepath.Separator)}, pkgs...)...)
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// TestGranularityOffGranuleBoundary: -g 192 does not divide the vertex
// count, so most ranks' summary shares clamp away to nothing at the end
// of the bitmap. That used to panic in Summary.RebuildRange at every
// 1-D level below overlap; the run must exit 0 with a validated tree.
func TestGranularityOffGranuleBoundary(t *testing.T) {
	bin := buildCLIs(t, "./graph500")
	for _, opt := range []string{"original", "par"} {
		cmd := exec.Command(filepath.Join(bin, "graph500"),
			"-scale", "12", "-nodes", "2", "-roots", "1", "-g", "192", "-opt", opt, "-validate")
		out, err := cmd.CombinedOutput()
		if err != nil || !strings.Contains(string(out), "all BFS trees pass") {
			t.Fatalf("-opt %s: %v\n%s", opt, err, out)
		}
	}
}

// TestRootCountAboveRootedVertices: a -roots or -batch value above the
// number of vertices that have an edge used to die in rmat.Params.Roots
// with a panic and a goroutine dump. Every CLI that draws roots must
// instead print one line and exit 2, as for any other bad flag value.
func TestRootCountAboveRootedVertices(t *testing.T) {
	bin := buildCLIs(t, "./graph500", "./bfsqd", "./bfsbench")
	for _, c := range []struct {
		name string
		args []string
	}{
		// 512 vertices, 453 of them with an edge.
		{"graph500", []string{"-scale", "9", "-nodes", "1", "-roots", "600"}},
		{"bfsbench", []string{"-fig", "11", "-scale", "9", "-roots", "600"}},
		// 64 vertices on one rank, 63 with an edge: one short of a batch.
		{"bfsqd", []string{"-scale", "6", "-nodes", "1", "-policy", "interleave", "-batch", "64"}},
	} {
		t.Run(c.name+" "+strings.Join(c.args, " "), func(t *testing.T) {
			var stderr bytes.Buffer
			cmd := exec.Command(filepath.Join(bin, c.name), c.args...)
			cmd.Stderr = &stderr
			err := cmd.Run()
			var exit *exec.ExitError
			if !errors.As(err, &exit) || exit.ExitCode() != 2 {
				t.Fatalf("exit: %v, want status 2\nstderr: %s", err, &stderr)
			}
			msg := strings.TrimSpace(stderr.String())
			if !strings.Contains(msg, "more roots requested than vertices with an edge") || strings.Contains(msg, "\n") {
				t.Fatalf("stderr is not the one-line message:\n%s", msg)
			}
		})
	}
}

// TestRootCountBelowOne: -roots below 1 used to panic in
// rmat.Params.Roots (negative) or run the default 64 roots while
// printing roots=0 (zero). Both CLIs that take -roots must print one
// line and exit 2.
func TestRootCountBelowOne(t *testing.T) {
	bin := buildCLIs(t, "./graph500", "./bfsbench")
	for _, c := range []struct {
		name string
		args []string
	}{
		{"graph500", []string{"-scale", "10", "-roots", "-1"}},
		{"graph500", []string{"-scale", "10", "-roots", "0"}},
		{"bfsbench", []string{"-fig", "11", "-scale", "10", "-roots", "-1"}},
		{"bfsbench", []string{"-fig", "2d", "-scale", "10", "-roots", "0"}},
	} {
		t.Run(c.name+" "+strings.Join(c.args, " "), func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			cmd := exec.Command(filepath.Join(bin, c.name), c.args...)
			cmd.Stdout, cmd.Stderr = &stdout, &stderr
			err := cmd.Run()
			var exit *exec.ExitError
			if !errors.As(err, &exit) || exit.ExitCode() != 2 {
				t.Fatalf("exit: %v, want status 2\nstderr: %s", err, &stderr)
			}
			msg := strings.TrimSpace(stderr.String())
			if stdout.Len() != 0 || msg != c.name+": -roots must be at least 1" {
				t.Fatalf("stdout %q; stderr is not the one-line message:\n%s", &stdout, msg)
			}
		})
	}
}

// TestTimelineReportMatchesMetrics: -timeline is the producers' one
// observability export, so obsdiff's report of the file must be the
// very report block -metrics printed in the same run.
func TestTimelineReportMatchesMetrics(t *testing.T) {
	bin := buildCLIs(t, "./graph500", "./obsdiff")
	tl := filepath.Join(t.TempDir(), "t.jsonl")
	g500, err := exec.Command(filepath.Join(bin, "graph500"),
		"-scale", "12", "-nodes", "2", "-roots", "2", "-opt", "overlap", "-timeline", tl, "-metrics").Output()
	if err != nil {
		t.Fatalf("graph500: %v", err)
	}
	report, err := exec.Command(filepath.Join(bin, "obsdiff"), "report", tl).Output()
	if err != nil {
		t.Fatalf("obsdiff report: %v", err)
	}
	if !bytes.HasPrefix(report, []byte("== ")) || !bytes.HasSuffix(g500, report) {
		t.Fatalf("obsdiff report is not graph500's -metrics block:\n--- graph500\n%s\n--- obsdiff report\n%s", g500, report)
	}
}

// TestScaleAbove32Rejected: the graph stores vertex ids in 32 bits, so a
// scale above 32 is a bad flag value — one line and exit 2, before
// anything the size of the graph is allocated.
func TestScaleAbove32Rejected(t *testing.T) {
	bin := buildCLIs(t, "./graph500")
	var stdout, stderr bytes.Buffer
	cmd := exec.Command(filepath.Join(bin, "graph500"), "-scale", "33", "-nodes", "1")
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 {
		t.Fatalf("exit: %v, want status 2\nstderr: %s", err, &stderr)
	}
	msg := strings.TrimSpace(stderr.String())
	if stdout.Len() != 0 || !strings.Contains(msg, "scale 33 out of range") || strings.Contains(msg, "\n") {
		t.Fatalf("stdout %q; stderr is not the one-line message:\n%s", &stdout, msg)
	}
}
