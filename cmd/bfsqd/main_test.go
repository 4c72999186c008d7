package main

import (
	"math"
	"testing"

	"numabfs/internal/bfs"
	"numabfs/internal/machine"
)

func TestParseNames(t *testing.T) {
	if p, ok := machine.PolicyNames["bind"]; !ok || p != machine.PPN8Bind {
		t.Errorf("policy bind = %v, %v", p, ok)
	}
	if _, ok := machine.PolicyNames["numa"]; ok {
		t.Error("bogus policy parsed")
	}
	if o, ok := parseOpt("compressed"); !ok || o != bfs.OptCompressedAllgather {
		t.Errorf("parseOpt(compressed) = %v, %v", o, ok)
	}
	// The batched engine gates the overlapped allgather out, so the CLI
	// must not offer it.
	if _, ok := parseOpt("overlap"); ok {
		t.Error("overlap accepted by the batched CLI")
	}
	if m, ok := bfs.ModeNames["bottomup"]; !ok || m != bfs.ModeBottomUp {
		t.Errorf("mode bottomup = %v, %v", m, ok)
	}
	if _, ok := bfs.ModeNames["direction-optimizing"]; ok {
		t.Error("bogus mode parsed")
	}
}

// ok returns a fully valid flag set; cases below perturb one field.
func ok() qdFlags {
	return qdFlags{
		scale: 14, nodes: 2, policy: "bind", opt: "compressed", mode: "hybrid",
		gran: 64, queries: 64, rate: 1, batch: 64, fillTimeoutNs: 0, seed: 7,
	}
}

func TestValidateFlags(t *testing.T) {
	if errs := validateFlags(ok()); errs != nil {
		t.Fatalf("valid flags rejected: %v", errs)
	}
	cases := []struct {
		name string
		mod  func(*qdFlags)
	}{
		{"zero scale", func(f *qdFlags) { f.scale = 0 }},
		{"zero nodes", func(f *qdFlags) { f.nodes = 0 }},
		{"bogus policy", func(f *qdFlags) { f.policy = "numa" }},
		{"bogus opt", func(f *qdFlags) { f.opt = "compresed" }},
		{"overlap opt", func(f *qdFlags) { f.opt = "overlap" }},
		{"bogus mode", func(f *qdFlags) { f.mode = "sideways" }},
		{"granularity not multiple of 64", func(f *qdFlags) { f.gran = 100 }},
		{"zero granularity", func(f *qdFlags) { f.gran = 0 }},
		{"zero queries", func(f *qdFlags) { f.queries = 0 }},
		{"zero rate", func(f *qdFlags) { f.rate = 0 }},
		{"negative rate", func(f *qdFlags) { f.rate = -2 }},
		{"NaN rate", func(f *qdFlags) { f.rate = math.NaN() }},
		{"infinite rate", func(f *qdFlags) { f.rate = math.Inf(1) }},
		{"NaN fill timeout", func(f *qdFlags) { f.fillTimeoutNs = math.NaN() }},
		{"infinite fill timeout", func(f *qdFlags) { f.fillTimeoutNs = math.Inf(1) }},
		{"negative infinite fill timeout", func(f *qdFlags) { f.fillTimeoutNs = math.Inf(-1) }},
		{"zero batch", func(f *qdFlags) { f.batch = 0 }},
		{"oversized batch", func(f *qdFlags) { f.batch = 65 }},
		{"negative fill timeout", func(f *qdFlags) { f.fillTimeoutNs = -1 }},
		{"zero seed", func(f *qdFlags) { f.seed = 0 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := ok()
			tc.mod(&f)
			if errs := validateFlags(f); len(errs) == 0 {
				t.Errorf("invalid flags %+v accepted", f)
			}
		})
	}
	// Each distinct problem reports its own line.
	f := ok()
	f.batch = 100
	f.rate = -1
	f.seed = 0
	if errs := validateFlags(f); len(errs) != 3 {
		t.Fatalf("want 3 errors, got %d: %v", len(errs), errs)
	}
}
