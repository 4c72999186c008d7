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

// TestRootCountAboveRootedVertices: a -roots or -batch value above the
// number of vertices that have an edge used to die in rmat.Params.Roots
// with a panic and a goroutine dump. Every CLI that draws roots must
// instead print one line and exit 2, as for any other bad flag value.
func TestRootCountAboveRootedVertices(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the CLIs")
	}
	bin := t.TempDir()
	build := exec.Command("go", "build", "-o", bin+string(filepath.Separator), "./graph500", "./bfsqd", "./bfsbench")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
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
