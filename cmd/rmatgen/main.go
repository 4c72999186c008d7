// Command rmatgen generates R-MAT edge lists with the Graph500
// parameters, either as text ("u v" per line) or as little-endian binary
// int64 pairs, to stdout or a file.
//
// Usage:
//
//	rmatgen -scale 16 > edges.txt
//	rmatgen -scale 20 -format bin -o edges.bin
//	rmatgen -scale 16 -from 0 -to 1000    # a slice of the edge list
//
// It exits 2 on a bad flag value and 1 when the edge list could not be
// written in full (unwritable path, full disk, closed pipe).
package main

import (
	"encoding/binary"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"

	"numabfs"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("rmatgen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	scale := fs.Int("scale", 14, "graph scale (log2 of vertex count)")
	ef := fs.Int64("edgefactor", 16, "edges per vertex")
	seed := fs.Uint64("seed", 0, "generator seed (0 = default)")
	format := fs.String("format", "text", "output format: text | bin")
	out := fs.String("o", "", "output file (default stdout)")
	from := fs.Int64("from", 0, "first edge index")
	to := fs.Int64("to", -1, "one past the last edge index (-1 = all)")
	noScramble := fs.Bool("noscramble", false, "disable vertex scrambling")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	usage := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "rmatgen: "+format+"\n", a...)
		return 2
	}

	params := numabfs.Graph500Params(*scale)
	params.EdgeFactor = *ef
	if *seed != 0 {
		params = params.WithSeed(*seed)
	}
	if *noScramble {
		params = params.WithScramble(false)
	}
	if err := params.Validate(); err != nil {
		return usage("%v", err)
	}
	lo, hi := *from, *to
	if hi < 0 || hi > params.NumEdges() {
		hi = params.NumEdges()
	}
	if lo < 0 || lo > hi {
		return usage("bad edge range [%d, %d)", lo, hi)
	}
	if *format != "text" && *format != "bin" {
		return usage("unknown format %q", *format)
	}

	w := stdout
	var f *os.File
	if *out != "" {
		var err error
		if f, err = os.Create(*out); err != nil {
			fmt.Fprintf(stderr, "rmatgen: %v\n", err)
			return 1
		}
		w = f
	}
	err := writeEdges(w, params, lo, hi, *format == "bin")
	if f != nil {
		// A deferred write error can surface only here.
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		fmt.Fprintf(stderr, "rmatgen: write: %v\n", err)
		return 1
	}
	return 0
}

// writeEdges writes edges [lo, hi) to w, one generated block per Write,
// and stops at the first write error.
func writeEdges(w io.Writer, params numabfs.GraphParams, lo, hi int64, bin bool) error {
	const block = 4096 // edges per Edges call and per Write
	edges := make([]int64, 0, 2*block)
	buf := make([]byte, 0, 16*block)
	for ; lo < hi; lo += block {
		edges = params.Edges(edges[:0], lo, min(lo+block, hi))
		buf = buf[:0]
		for k := 0; k < len(edges); k += 2 {
			if bin {
				buf = binary.LittleEndian.AppendUint64(buf, uint64(edges[k]))
				buf = binary.LittleEndian.AppendUint64(buf, uint64(edges[k+1]))
			} else {
				buf = strconv.AppendInt(buf, edges[k], 10)
				buf = append(buf, ' ')
				buf = strconv.AppendInt(buf, edges[k+1], 10)
				buf = append(buf, '\n')
			}
		}
		if _, err := w.Write(buf); err != nil {
			return err
		}
	}
	return nil
}
