package obs

import (
	"bufio"
	"fmt"
	"html"
	"io"
)

// Self-contained HTML report: rank×phase heatmaps and gauge timelines
// rendered server-side as HTML tables and inline SVG — no scripts, no
// external assets, one file that opens anywhere. Rendering order and
// number formatting are fixed, so a deterministic recording produces a
// byte-identical report.

// rankPalette colors rank series in the timeline SVGs (cycled by rank
// index).
var rankPalette = []string{
	"#1f77b4", "#ff7f0e", "#2ca02c", "#d62728",
	"#9467bd", "#8c564b", "#e377c2", "#7f7f7f",
}

const htmlStyle = `body{font:14px/1.4 system-ui,sans-serif;margin:24px;color:#222}
h1{font-size:20px}h2{font-size:16px;margin-top:28px;border-bottom:1px solid #ddd;padding-bottom:4px}
h3{font-size:13px;margin-bottom:4px;color:#555}
table.hm{border-collapse:collapse;margin:8px 0}
table.hm td,table.hm th{border:1px solid #eee;padding:2px 8px;font-size:12px;text-align:right}
table.hm th{background:#fafafa;font-weight:600}
table.hm td.lbl{text-align:left;background:#fafafa}
svg{background:#fcfcfc;border:1px solid #eee;margin:4px 0}
.legend span{display:inline-block;margin-right:12px;font-size:12px}
.legend i{display:inline-block;width:10px;height:10px;margin-right:4px;border-radius:2px}
.meta{color:#777;font-size:12px}`

// heatCell returns the inline background style for a cell value on a
// white→red scale.
func heatCell(v, max float64) string {
	if max <= 0 || v <= 0 {
		return ""
	}
	frac := v / max
	if frac > 1 {
		frac = 1
	}
	// white (255,255,255) -> red (214,69,51)
	rC := 255 - int(frac*(255-214))
	g := 255 - int(frac*(255-69))
	b := 255 - int(frac*(255-51))
	style := fmt.Sprintf(" style=\"background:rgb(%d,%d,%d)", rC, g, b)
	if frac > 0.6 {
		style += ";color:#fff"
	}
	return style + "\""
}

func writeHeatmap(bw *bufio.Writer, h *Heatmap, fmtCell func(float64) string) {
	fmt.Fprintf(bw, "<h3>%s</h3>\n<table class=\"hm\"><tr><th></th>", html.EscapeString(h.Title))
	for _, c := range h.Cols {
		fmt.Fprintf(bw, "<th>%s</th>", html.EscapeString(c))
	}
	bw.WriteString("</tr>\n")
	for i, row := range h.Cells {
		fmt.Fprintf(bw, "<tr><td class=\"lbl\">%s</td>", html.EscapeString(h.Rows[i]))
		for _, v := range row {
			fmt.Fprintf(bw, "<td%s>%s</td>", heatCell(v, h.Max), fmtCell(v))
		}
		bw.WriteString("</tr>\n")
	}
	bw.WriteString("</table>\n")
}

// writeGaugeSVG draws one gauge's per-rank series as step lines over
// the session grid.
func writeGaugeSVG(bw *bufio.Writer, s *RunSession, g Gauge) bool {
	lo, hi := int64(0), int64(-1)
	var vmax float64
	for _, rk := range s.Ranks {
		pts := rk.Gauges[g]
		if len(pts) == 0 {
			continue
		}
		if hi < lo || pts[0].Bucket < lo {
			lo = pts[0].Bucket
		}
		if pts[len(pts)-1].Bucket > hi {
			hi = pts[len(pts)-1].Bucket
		}
		for _, pt := range pts {
			if pt.V > vmax {
				vmax = pt.V
			}
		}
	}
	if hi < lo || vmax <= 0 {
		return false
	}
	const W, H, pad = 720, 120, 8
	nb := hi - lo + 1
	xOf := func(b int64) float64 {
		return pad + (float64(b-lo)+0.5)/float64(nb)*(W-2*pad)
	}
	yOf := func(v float64) float64 {
		return H - pad - v/vmax*(H-2*pad)
	}
	fmt.Fprintf(bw, "<h3>%s (max %.6g, bucket %.0f ns)</h3>\n", html.EscapeString(g.String()), vmax, s.BucketNs)
	fmt.Fprintf(bw, "<svg width=\"%d\" height=\"%d\" viewBox=\"0 0 %d %d\">\n", W, H, W, H)
	// Segment boundaries (root ends) as dashed verticals.
	if s.BucketNs > 0 {
		for _, m := range s.Marks {
			b := int64(m / s.BucketNs)
			if b < lo || b > hi {
				continue
			}
			x := xOf(b)
			fmt.Fprintf(bw, "<line x1=\"%.1f\" y1=\"%d\" x2=\"%.1f\" y2=\"%d\" stroke=\"#bbb\" stroke-dasharray=\"3,3\"/>\n",
				x, pad, x, H-pad)
		}
	}
	for i, rk := range s.Ranks {
		pts := rk.Gauges[g]
		if len(pts) == 0 {
			continue
		}
		color := rankPalette[i%len(rankPalette)]
		fmt.Fprintf(bw, "<polyline fill=\"none\" stroke=\"%s\" stroke-width=\"1.5\" points=\"", color)
		for j, pt := range pts {
			if j > 0 {
				bw.WriteByte(' ')
			}
			fmt.Fprintf(bw, "%.1f,%.1f", xOf(pt.Bucket), yOf(pt.V))
		}
		bw.WriteString("\"/>\n")
	}
	bw.WriteString("</svg>\n<div class=\"legend\">")
	for i, rk := range s.Ranks {
		if len(rk.Gauges[g]) == 0 {
			continue
		}
		fmt.Fprintf(bw, "<span><i style=\"background:%s\"></i>rank %d</span>",
			rankPalette[i%len(rankPalette)], rk.ID)
	}
	bw.WriteString("</div>\n")
	return true
}

// WriteHTMLReport renders the run as one self-contained HTML page: per
// session a rank×phase heatmap, gauge timelines (when sampling was on),
// and a rank×time heatmap of the inter-node wire volume.
func (run *Run) WriteHTMLReport(w io.Writer) error {
	bw := bufio.NewWriter(w)
	bw.WriteString("<!DOCTYPE html>\n<html><head><meta charset=\"utf-8\">\n")
	bw.WriteString("<title>numabfs timeline report</title>\n<style>" + htmlStyle + "</style></head>\n<body>\n")
	bw.WriteString("<h1>numabfs timeline report</h1>\n")
	for _, s := range run.Sessions {
		fmt.Fprintf(bw, "<h2>%s</h2>\n<p class=\"meta\">%d ranks",
			html.EscapeString(s.Label), len(s.Ranks))
		if s.BucketNs > 0 {
			fmt.Fprintf(bw, ", sampling grid %.0f ns", s.BucketNs)
		}
		if s.LinkPeak > 0 {
			fmt.Fprintf(bw, ", inter-node peak %.6g B/ns", s.LinkPeak)
		}
		bw.WriteString("</p>\n")

		writeHeatmap(bw, s.PhaseHeatmap(), func(v float64) string {
			return fmt.Sprintf("%.3f", v/1e6) // ms
		})

		if s.BucketNs > 0 {
			for g := Gauge(0); g < NumGauges; g++ {
				writeGaugeSVG(bw, s, g)
			}
			if hm := s.GaugeHeatmap(GaugeInterBytes); hm != nil {
				writeHeatmap(bw, hm.Coarsen(24), func(v float64) string {
					return fmt.Sprintf("%.0f", v)
				})
			}
		}
	}
	bw.WriteString("</body></html>\n")
	return bw.Flush()
}
