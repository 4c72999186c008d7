package experiments

import (
	"fmt"

	"numabfs/internal/bfs"
	"numabfs/internal/graph500"
	"numabfs/internal/stats"
	"numabfs/internal/wire"
)

// perRoot is the mean of f over the run's roots.
func perRoot(r *graph500.Result, f func(bfs.RootResult) float64) float64 {
	xs := make([]float64, len(r.PerRoot))
	for i, rr := range r.PerRoot {
		xs[i] = f(rr)
	}
	return stats.Mean(xs)
}

// wireMB and rawMB are the encoded and logical communication volume per
// root in MB.
func wireMB(r *graph500.Result) float64 {
	return perRoot(r, func(rr bfs.RootResult) float64 { return float64(rr.CommBytes) }) / (1 << 20)
}

func rawMB(r *graph500.Result) float64 {
	return perRoot(r, func(rr bfs.RootResult) float64 { return float64(rr.RawCommBytes) }) / (1 << 20)
}

// segments is the mean number of f-encoded segments per root.
func segments(f wire.Format) func(*graph500.Result) float64 {
	return func(r *graph500.Result) float64 {
		return perRoot(r, func(rr bfs.RootResult) float64 { return float64(rr.Wire.Segments[f]) })
	}
}

// ExtCompression evaluates the adaptive frontier compression of the
// bottom-up allgather (OptCompressedAllgather) as a weak-scaling sweep
// over 1..16 nodes: TEPS for every cumulative level, the average
// bottom-up communication phase of the top two levels, the wire-vs-raw
// volume of the compressed level, and the selector's per-format segment
// counts (which show it switching formats as the frontier's density
// moves through the BFS). Compression pays off where the segments are
// big enough for the β (bandwidth) term to dominate the modelled
// encode/decode scans — small scales show the crossover itself.
func ExtCompression(s Spec) (*Table, error) {
	vs := compressedVariants()
	res, err := s.collect(s.sweep(vs, weakNodes))
	if err != nil {
		return nil, err
	}
	t := &Table{
		Name:    "Ext. compression",
		Title:   "Adaptive frontier compression for the bottom-up allgather, weak scaling",
		Columns: nodeColumns(weakNodes),
		Notes: []string{
			"wire < raw MB is the compression saving; raw equals the uncompressed level's volume (Eq. 1/2 unchanged)",
			"the per-format segment counts show the selector tracking the frontier's density across levels",
		},
	}
	grid := rows(res, len(weakNodes))
	for i, row := range grid {
		t.AddRow(vs[i].label+" TEPS", project(row, teps)...)
	}
	comp := grid[compRung]
	t.AddRow("Par allgather bu-comm (ms)", project(grid[parRung], buCommMs)...)
	t.AddRow("Compressed bu-comm (ms)", project(comp, buCommMs)...)
	t.AddRow("Compressed wire MB/root", project(comp, wireMB)...)
	t.AddRow("Compressed raw MB/root", project(comp, rawMB)...)
	t.AddRow("segments dense/root", project(comp, segments(wire.FormatDense))...)
	t.AddRow("segments sparse/root", project(comp, segments(wire.FormatSparse))...)
	t.AddRow("segments rle/root", project(comp, segments(wire.FormatRLE))...)
	return t, nil
}

// AblationCompression ablates the codec's selector on a fixed 4-node
// cluster: the adaptive size-based choice against each format forced,
// and against the classic density-threshold rule (Buluç & Madduri) at
// several thresholds. The adaptive row must have the smallest wire
// volume — every other selector is one of its candidates.
func AblationCompression(s Spec) (*Table, error) {
	const nodes = 4
	cells := s.knobs(nodes, bfs.OptCompressedAllgather, []knob{
		{"par-allgather (no codec)", func(o *bfs.Options) { o.Opt = bfs.OptParAllgather }},
		{"adaptive (size-based)", func(o *bfs.Options) {}},
		{"force dense", func(o *bfs.Options) { o.WireFormat = wire.FormatDense }},
		{"force sparse", func(o *bfs.Options) { o.WireFormat = wire.FormatSparse }},
		{"force rle", func(o *bfs.Options) { o.WireFormat = wire.FormatRLE }},
		{"threshold d<0.005", func(o *bfs.Options) { o.WireSparseDensity = 0.005 }},
		{"threshold d<0.02", func(o *bfs.Options) { o.WireSparseDensity = 0.02 }},
		{"threshold d<0.1", func(o *bfs.Options) { o.WireSparseDensity = 0.1 }},
	})
	res, err := s.collect(cells)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Name:    "Abl. compression",
		Title:   fmt.Sprintf("Wire-format selector ablation (%d nodes, scale %d)", nodes, s.scaleFor(nodes)),
		Columns: []string{"TEPS", "wire MB", "raw MB", "bu-comm ms"},
		Notes: []string{
			"the adaptive selector's wire MB lower-bounds every forced format and threshold rule",
			"raw MB is constant across rows: compression changes the encoding, never the logical traffic",
		},
	}
	t.addColumns(labels(cells), project(res, teps), project(res, wireMB), project(res, rawMB), project(res, buCommMs))
	return t, nil
}
