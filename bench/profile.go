package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// A stack is one CPU-profile sample: function names leaf first, and how
// many sampling ticks landed on it.
type stack struct {
	Funcs []string
	N     int64
}

// cpuShares is the attribution of a profile to the repository's layers.
type cpuShares struct {
	Self    map[string]float64 // innermost numabfs/internal/<layer> frame
	Incl    map[string]float64 // layer anywhere on the stack
	GC      float64            // no layer frame, garbage collector on the stack
	Other   float64            // no layer frame, anything else (scheduler, harness)
	Samples int64
}

const layerPrefix = "numabfs/internal/"

// layerOf returns the internal package a function belongs to, or "".
// "numabfs/internal/bfs.(*rankState).scan.func1" -> "bfs".
func layerOf(fn string) string {
	if !strings.HasPrefix(fn, layerPrefix) {
		return ""
	}
	rest := fn[len(layerPrefix):]
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		return rest[:i]
	}
	return rest
}

func isGCFrame(fn string) bool {
	for _, p := range []string{"runtime.gcBgMarkWorker", "runtime.gcDrain", "runtime.gcAssistAlloc",
		"runtime.bgsweep", "runtime.bgscavenge", "runtime.gcMarkTermination", "runtime.gcStart"} {
		if strings.HasPrefix(fn, p) {
			return true
		}
	}
	return false
}

// attribute charges every sample to the innermost layer frame on its
// stack (self) and to every layer on the stack once (inclusive). Time
// the runtime spends on a layer's behalf (channel operations under mpi,
// allocation under bfs) is the layer's; only stacks without any layer
// frame fall to the runtime buckets.
func attribute(stacks []stack) cpuShares {
	sh := cpuShares{Self: map[string]float64{}, Incl: map[string]float64{}}
	for _, s := range stacks {
		sh.Samples += s.N
	}
	if sh.Samples == 0 {
		return sh
	}
	total := float64(sh.Samples)
	for _, s := range stacks {
		w := float64(s.N) / total
		inner, gc := "", false
		seen := map[string]bool{}
		for _, fn := range s.Funcs {
			if l := layerOf(fn); l != "" {
				if inner == "" {
					inner = l
				}
				if !seen[l] {
					seen[l] = true
					sh.Incl[l] += w
				}
			} else if isGCFrame(fn) {
				gc = true
			}
		}
		switch {
		case inner != "":
			sh.Self[inner] += w
		case gc:
			sh.GC += w
		default:
			sh.Other += w
		}
	}
	return sh
}

// parseProfile reads a gzipped pprof protobuf (what runtime/pprof
// writes) into stacks, using the first sample value (the tick count).
// Only the fields attribution needs are decoded.
func parseProfile(gz []byte) ([]stack, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type sample struct {
		locs []uint64
		n    int64
	}
	var (
		samples  []sample
		locFuncs = map[uint64][]uint64{} // location id -> function ids, innermost inlined frame first
		funcName = map[uint64]uint64{}   // function id -> string table index
		strs     []string
	)
	err = eachField(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // Sample
			var s sample
			var vals []uint64
			if err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					s.locs = appendVarints(s.locs, v, b)
				case 2:
					vals = appendVarints(vals, v, b)
				}
				return nil
			}); err != nil {
				return err
			}
			if len(vals) > 0 {
				s.n = int64(vals[0])
			}
			samples = append(samples, s)
		case 4: // Location
			var id uint64
			var fns []uint64
			if err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Line
					return eachField(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			}); err != nil {
				return err
			}
			locFuncs[id] = fns
		case 5: // Function
			var id, name uint64
			if err := eachField(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			}); err != nil {
				return err
			}
			funcName[id] = name
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	out := make([]stack, 0, len(samples))
	for _, s := range samples {
		st := stack{N: s.n}
		for _, loc := range s.locs {
			for _, fid := range locFuncs[loc] {
				if i := funcName[fid]; i < uint64(len(strs)) {
					st.Funcs = append(st.Funcs, strs[i])
				}
			}
		}
		out = append(out, st)
	}
	return out, nil
}

var errTruncated = errors.New("truncated protobuf")

// eachField walks one protobuf message, calling f with the field
// number and either the varint value or the length-delimited bytes.
func eachField(b []byte, f func(num int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		num, wt := int(key>>3), key&7
		switch wt {
		case 0:
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return errTruncated
			}
			b = b[n:]
			if err := f(num, v, nil); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			if err := f(num, 0, b[n:n+int(l)]); err != nil {
				return err
			}
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
		default:
			return fmt.Errorf("protobuf wire type %d", wt)
		}
	}
	return nil
}

// appendVarints appends a repeated varint field's values: one value
// when unpacked (b nil), all of them when packed.
func appendVarints(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}
