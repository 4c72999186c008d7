package bfs

import (
	"testing"

	"numabfs/internal/rmat"
	"numabfs/internal/trace"
	"numabfs/internal/wire"

	"numabfs/internal/machine"
)

// runOpt runs one BFS root at the given level and returns the result.
func runOpt(t *testing.T, scale, nodes int, opts Options) RootResult {
	t.Helper()
	params := rmat.Graph500(scale)
	r := setUp(t, testConfig(scale, nodes, 4), machine.PPN8Bind, params, opts)
	root := params.Roots(1, r.HasEdgeGlobal)[0]
	return r.RunRoot(root)
}

// TestCompressedAllgatherSavesBytes is the tentpole's acceptance check
// at unit scope: at 4 nodes the compressed level must traverse the
// same graph while moving fewer wire bytes than the parallelized
// allgather moves raw, with the adaptive selector actually switching
// formats across the frontier's growth curve, and the bottom-up
// communication phase must get cheaper in modelled time. Scale 16 is
// the smallest at which the in_queue segments are large enough for the
// bandwidth saving to outweigh the modelled encode/decode scans (below
// that the α latency term dominates and compression is a wash — the
// ablation experiment charts this).
func TestCompressedAllgatherSavesBytes(t *testing.T) {
	const scale, nodes = 16, 4
	opts := DefaultOptions()
	opts.Opt = OptParAllgather
	par := runOpt(t, scale, nodes, opts)
	opts.Opt = OptCompressedAllgather
	comp := runOpt(t, scale, nodes, opts)

	if comp.Visited != par.Visited || comp.TraversedEdges != par.TraversedEdges {
		t.Fatalf("compressed level changed the traversal: %+v vs %+v", comp, par)
	}
	// The logical traffic is identical — compression only changes the
	// encoding on the wire.
	if comp.RawCommBytes != par.CommBytes {
		t.Errorf("raw volume %d under compression, %d under par-allgather",
			comp.RawCommBytes, par.CommBytes)
	}
	if par.RawCommBytes != par.CommBytes {
		t.Errorf("par-allgather raw %d != wire %d; raw accounting should be a no-op below the compressed level",
			par.RawCommBytes, par.CommBytes)
	}
	if comp.CommBytes >= par.CommBytes {
		t.Errorf("compressed wire bytes %d not below par-allgather's %d", comp.CommBytes, par.CommBytes)
	}
	if comp.Breakdown.Ns[trace.BUComm] >= par.Breakdown.Ns[trace.BUComm] {
		t.Errorf("compressed BU comm %.0f ns not below par-allgather's %.0f ns",
			comp.Breakdown.Ns[trace.BUComm], par.Breakdown.Ns[trace.BUComm])
	}
	var formats int
	for f, n := range comp.Wire.Segments {
		if n > 0 && wire.Format(f) != wire.FormatList {
			formats++
		}
	}
	if formats < 2 {
		t.Errorf("adaptive selector used %d format(s) across the run: %v", formats, comp.Wire.Segments)
	}
	if comp.Wire.WireBytes >= comp.Wire.RawBytes {
		t.Errorf("codec stats: wire %d >= raw %d", comp.Wire.WireBytes, comp.Wire.RawBytes)
	}
	if par.Wire != (wire.Stats{}) {
		t.Errorf("par-allgather accumulated wire stats: %+v", par.Wire)
	}
}

// TestForcedFormatsAgree pins the ablation knobs: forcing any single
// format, or the classic density threshold, must not change the
// traversal — only the wire bytes.
func TestForcedFormatsAgree(t *testing.T) {
	const scale, nodes = 12, 2
	base := DefaultOptions()
	base.Opt = OptCompressedAllgather
	ref := runOpt(t, scale, nodes, base)

	for _, tc := range []struct {
		name string
		mod  func(*Options)
	}{
		{"force-dense", func(o *Options) { o.WireFormat = wire.FormatDense }},
		{"force-sparse", func(o *Options) { o.WireFormat = wire.FormatSparse }},
		{"force-rle", func(o *Options) { o.WireFormat = wire.FormatRLE }},
		{"density-threshold", func(o *Options) { o.WireSparseDensity = 1.0 / 64 }},
	} {
		opts := base
		tc.mod(&opts)
		res := runOpt(t, scale, nodes, opts)
		if res.Visited != ref.Visited || res.TraversedEdges != ref.TraversedEdges {
			t.Errorf("%s: traversal changed (%d/%d vs %d/%d)", tc.name,
				res.Visited, res.TraversedEdges, ref.Visited, ref.TraversedEdges)
		}
		if res.RawCommBytes != ref.RawCommBytes {
			t.Errorf("%s: raw volume %d, want %d", tc.name, res.RawCommBytes, ref.RawCommBytes)
		}
		// The adaptive selector picks the cheapest format per segment, so
		// no forced format can beat it on wire bytes.
		if res.Wire.WireBytes < ref.Wire.WireBytes {
			t.Errorf("%s: forced format beat the adaptive selector (%d < %d wire bytes)",
				tc.name, res.Wire.WireBytes, ref.Wire.WireBytes)
		}
	}
}

// TestOptionsValidateWire covers the new option errors.
func TestOptionsValidateWire(t *testing.T) {
	opts := DefaultOptions()
	opts.WireFormat = wire.FormatList
	if opts.Validate() == nil {
		t.Error("list format accepted as a bitmap wire format")
	}
	opts = DefaultOptions()
	opts.WireSparseDensity = 1.5
	if opts.Validate() == nil {
		t.Error("density threshold above 1 accepted")
	}
	opts = DefaultOptions()
	opts.Opt = OptOverlapAllgather + 1
	if opts.Validate() == nil {
		t.Error("out-of-range level accepted")
	}
}
