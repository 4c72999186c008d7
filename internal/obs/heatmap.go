package obs

import (
	"cmp"
	"slices"
	"strconv"

	"numabfs/internal/trace"
)

// Heatmap is one rank-per-row matrix ready for rendering: the rank ×
// phase view (where does each rank's time go) and the rank × time view
// (how a gauge evolves over the session grid) both produce it.
type Heatmap struct {
	Title string
	Unit  string
	Rows  []string    // row labels, one per rank
	Cols  []string    // column labels (phase names or bucket times)
	Cells [][]float64 // [row][col]
	Max   float64     // largest cell, for color scaling
}

func rankLabel(rk *RunRank) string {
	return "rank " + strconv.Itoa(rk.ID) + " (n" + strconv.Itoa(rk.Node) + "/s" + strconv.Itoa(rk.Socket) + ")"
}

// addRow appends one rank's row and raises Max to its largest cell.
func (h *Heatmap) addRow(label string, row []float64) {
	h.Rows = append(h.Rows, label)
	h.Cells = append(h.Cells, row)
	for _, v := range row {
		h.Max = max(h.Max, v)
	}
}

// phaseHeatmap builds the rank × phase matrix: each cell is the rank's
// total virtual ns charged to the phase over the whole session. Columns
// are the trace phases in enum order, so the matrix shape is identical
// across runs and diffable cell-by-cell.
func (f *sessionFold) phaseHeatmap() *Heatmap {
	h := &Heatmap{Title: "rank x phase (total ns)", Unit: "ns", Cols: trace.PhaseNames()}
	for i := range f.ranks {
		h.addRow(rankLabel(f.s.Ranks[i]), f.ranks[i].phase[:])
	}
	return h
}

// gaugeHeatmap builds the rank × time matrix of one gauge on the
// session's sampling grid, in at most maxCols columns. Columns cover the
// bucket range any rank touched; when that span is wider than maxCols,
// each column sums a group of ceil(span/maxCols) adjacent buckets and is
// labelled by the group's first. Cells are summed straight from the
// points, so the cost follows the samples, not the span. Untouched cells
// are zero. Returns nil when the session recorded no samples of g (or
// sampling was off).
func (f *sessionFold) gaugeHeatmap(g Gauge, maxCols int) *Heatmap {
	lo, hi := f.gauge[g].lo, f.gauge[g].hi
	if hi < lo {
		return nil
	}
	h := &Heatmap{
		Title: "rank x time: " + g.String() + " (bucket " + strconv.FormatFloat(f.s.BucketNs, 'f', 0, 64) + " ns)",
		Unit:  g.String(),
	}
	// d is the span less one, in uint64 so no bucket range overflows;
	// gsz is ceil(span/maxCols), 1 when the span fits.
	d := uint64(hi - lo)
	gsz := d/uint64(maxCols) + 1
	for c := uint64(0); c <= d/gsz; c++ {
		h.Cols = append(h.Cols, strconv.FormatFloat(float64(lo+int64(c*gsz))*f.s.BucketNs, 'f', 0, 64))
	}
	for _, rk := range f.s.Ranks {
		row := make([]float64, len(h.Cols))
		for _, pt := range bucketSeries(rk.Gauges[g]) {
			row[uint64(pt.Bucket-lo)/gsz] += pt.V
		}
		h.addRow(rankLabel(rk), row)
	}
	return h
}

// bucketSeries returns pts in bucket order with one point per bucket, the
// last one listed: the series a row indexed by bucket would hold, whose
// values a column group then sums in bucket order. A recorded timeline
// is already in that form and is returned as is.
func bucketSeries(pts []GaugePoint) []GaugePoint {
	strict := true
	for k := 1; k < len(pts) && strict; k++ {
		strict = pts[k-1].Bucket < pts[k].Bucket
	}
	if strict {
		return pts
	}
	sorted := slices.Clone(pts)
	slices.SortStableFunc(sorted, func(a, b GaugePoint) int { return cmp.Compare(a.Bucket, b.Bucket) })
	out := sorted[:0]
	for k, pt := range sorted {
		if k+1 == len(sorted) || sorted[k+1].Bucket != pt.Bucket {
			out = append(out, pt)
		}
	}
	return out
}
