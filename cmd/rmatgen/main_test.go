package main

import (
	"bytes"
	"encoding/hex"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// Edges [3, 11) of the default scale-8 graph, as the per-edge
// Fprintf/PutUint64 writer of the previous rmatgen printed them.
const (
	goldenText = "161 0\n200 90\n200 77\n118 0\n118 94\n120 221\n102 111\n49 129\n"
	goldenBin  = "a1000000000000000000000000000000c8000000000000005a00000000000000" +
		"c8000000000000004d0000000000000076000000000000000000000000000000" +
		"76000000000000005e000000000000007800000000000000dd00000000000000" +
		"66000000000000006f0000000000000031000000000000008100000000000000"
)

func TestGoldenSlice(t *testing.T) {
	for _, c := range []struct{ format, want string }{
		{"text", goldenText},
		{"bin", goldenBin},
	} {
		var stdout, stderr bytes.Buffer
		if code := run([]string{"-scale", "8", "-from", "3", "-to", "11", "-format", c.format}, &stdout, &stderr); code != 0 {
			t.Fatalf("%s: exit %d: %s", c.format, code, &stderr)
		}
		got := stdout.String()
		if c.format == "bin" {
			got = hex.EncodeToString(stdout.Bytes())
		}
		if got != c.want {
			t.Errorf("%s: wrote\n%s\nwant\n%s", c.format, got, c.want)
		}
		// The same bytes through -o.
		path := filepath.Join(t.TempDir(), "edges")
		if code := run([]string{"-scale", "8", "-from", "3", "-to", "11", "-format", c.format, "-o", path}, &stdout, &stderr); code != 0 {
			t.Fatalf("%s -o: exit %d: %s", c.format, code, &stderr)
		}
		if file, err := os.ReadFile(path); err != nil || !bytes.Equal(file, stdout.Bytes()) {
			t.Errorf("%s: -o wrote %d bytes (err %v), stdout had %d", c.format, len(file), err, stdout.Len())
		}
	}
}

// TestBlocksJoinSeamlessly: a range longer than one generated block
// reads the same as its pieces, in both formats.
func TestBlocksJoinSeamlessly(t *testing.T) {
	for _, format := range []string{"text", "bin"} {
		var whole, parts, stderr bytes.Buffer
		if code := run([]string{"-scale", "10", "-to", "9000", "-format", format}, &whole, &stderr); code != 0 {
			t.Fatalf("exit %d: %s", code, &stderr)
		}
		for _, r := range [][2]string{{"0", "4095"}, {"4095", "4097"}, {"4097", "9000"}} {
			if code := run([]string{"-scale", "10", "-from", r[0], "-to", r[1], "-format", format}, &parts, &stderr); code != 0 {
				t.Fatalf("exit %d: %s", code, &stderr)
			}
		}
		if !bytes.Equal(whole.Bytes(), parts.Bytes()) {
			t.Errorf("%s: [0, 9000) differs from its three pieces", format)
		}
	}
}

func TestBadFlagsExit2(t *testing.T) {
	for _, args := range [][]string{
		{"-format", "xml"},
		{"-scale", "8", "-from", "5", "-to", "3"},
		{"-scale", "8", "-from", "-1"},
		{"-scale", "0"},
		{"-scale", "33"},
		{"-scale", "41"},
		{"-edgefactor", "0"},
		{"-nosuchflag"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
		if stdout.Len() != 0 || !strings.Contains(stderr.String(), "rmatgen") && !strings.Contains(stderr.String(), "flag") {
			t.Errorf("%v: stdout %q, stderr %q", args, &stdout, &stderr)
		}
	}
}

// failAfter accepts n bytes, then reports a full disk.
type failAfter struct{ n int }

var errDiskFull = errors.New("no space left on device")

func (w *failAfter) Write(p []byte) (int, error) {
	if len(p) > w.n {
		n := w.n
		w.n = 0
		return n, errDiskFull
	}
	w.n -= len(p)
	return len(p), nil
}

// TestWriteFailuresExit1: a truncated edge list is an error, not a
// success — on stdout (closed pipe), on -o to a path that cannot be
// created, and on -o to a device that refuses the bytes.
func TestWriteFailuresExit1(t *testing.T) {
	for _, format := range []string{"text", "bin"} {
		var stderr bytes.Buffer
		if code := run([]string{"-scale", "10", "-format", format}, &failAfter{n: 100000}, &stderr); code != 1 {
			t.Errorf("%s to a failing stdout: exit %d, want 1", format, code)
		}
		if !strings.Contains(stderr.String(), errDiskFull.Error()) {
			t.Errorf("%s: stderr %q does not name the write error", format, &stderr)
		}
		stderr.Reset()
		if code := run([]string{"-scale", "8", "-format", format, "-o", filepath.Join(t.TempDir(), "no", "such", "dir")}, &bytes.Buffer{}, &stderr); code != 1 {
			t.Errorf("%s -o to an uncreatable path: exit %d, want 1", format, code)
		}
		if _, err := os.Stat("/dev/full"); err == nil {
			if code := run([]string{"-scale", "8", "-format", format, "-o", "/dev/full"}, &bytes.Buffer{}, &stderr); code != 1 {
				t.Errorf("%s -o /dev/full: exit %d, want 1", format, code)
			}
		}
	}
}
