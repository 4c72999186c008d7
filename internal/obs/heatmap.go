package obs

import (
	"fmt"

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
	return fmt.Sprintf("rank %d (n%d/s%d)", rk.ID, rk.Node, rk.Socket)
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
// session's sampling grid. Columns cover the bucket range any rank
// touched; untouched cells are zero. Returns nil when the session
// recorded no samples of g (or sampling was off).
func (f *sessionFold) gaugeHeatmap(g Gauge) *Heatmap {
	lo, hi := f.gauge[g].lo, f.gauge[g].hi
	if hi < lo {
		return nil
	}
	h := &Heatmap{
		Title: fmt.Sprintf("rank x time: %s (bucket %.0f ns)", g, f.s.BucketNs),
		Unit:  g.String(),
	}
	for b := lo; b <= hi; b++ {
		h.Cols = append(h.Cols, fmt.Sprintf("%.0f", float64(b)*f.s.BucketNs))
	}
	for _, rk := range f.s.Ranks {
		row := make([]float64, hi-lo+1)
		for _, pt := range rk.Gauges[g] {
			row[pt.Bucket-lo] = pt.V
		}
		h.addRow(rankLabel(rk), row)
	}
	return h
}

// Coarsen folds the heatmap's columns into at most maxCols groups by
// summing adjacent cells (mean for instantaneous quantities is not
// needed: callers render volumes and durations). It returns the
// receiver when already narrow enough.
func (h *Heatmap) Coarsen(maxCols int) *Heatmap {
	n := len(h.Cols)
	if maxCols <= 0 || n <= maxCols {
		return h
	}
	// group size: ceil(n / maxCols)
	gsz := (n + maxCols - 1) / maxCols
	out := &Heatmap{Title: h.Title, Unit: h.Unit}
	for i := 0; i < n; i += gsz {
		out.Cols = append(out.Cols, h.Cols[i])
	}
	for r, row := range h.Cells {
		nrow := make([]float64, len(out.Cols))
		for i, v := range row {
			nrow[i/gsz] += v
		}
		out.addRow(h.Rows[r], nrow)
	}
	return out
}
