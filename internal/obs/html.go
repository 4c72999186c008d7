package obs

import (
	"bufio"
	"html"
	"io"
	"strconv"
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

// htmlOut is the report's buffered writer. Numbers go through
// strconv.Append* into num, never through fmt: fmt's printer pool drops
// items at random under the race detector, so a render's allocation
// count would vary run to run.
type htmlOut struct {
	*bufio.Writer
	num []byte
}

// float writes v as fmt's %.<prec><verb> does.
func (o *htmlOut) float(v float64, verb byte, prec int) {
	o.num = strconv.AppendFloat(o.num[:0], v, verb, prec, 64)
	o.Write(o.num)
}

func (o *htmlOut) int(v int) {
	o.num = strconv.AppendInt(o.num[:0], int64(v), 10)
	o.Write(o.num)
}

// heatStyle writes the inline background style for a cell value on a
// white→red scale.
func (o *htmlOut) heatStyle(v, max float64) {
	if max <= 0 || v <= 0 {
		return
	}
	frac := min(v/max, 1)
	// white (255,255,255) -> red (214,69,51)
	o.WriteString(" style=\"background:rgb(")
	o.int(255 - int(frac*(255-214)))
	o.WriteByte(',')
	o.int(255 - int(frac*(255-69)))
	o.WriteByte(',')
	o.int(255 - int(frac*(255-51)))
	o.WriteByte(')')
	if frac > 0.6 {
		o.WriteString(";color:#fff")
	}
	o.WriteByte('"')
}

// writeHeatmap renders h, each cell as v/scale with prec decimals.
func writeHeatmap(o *htmlOut, h *Heatmap, scale float64, prec int) {
	o.WriteString("<h3>" + html.EscapeString(h.Title) + "</h3>\n<table class=\"hm\"><tr><th></th>")
	for _, c := range h.Cols {
		o.WriteString("<th>" + html.EscapeString(c) + "</th>")
	}
	o.WriteString("</tr>\n")
	for i, row := range h.Cells {
		o.WriteString("<tr><td class=\"lbl\">" + html.EscapeString(h.Rows[i]) + "</td>")
		for _, v := range row {
			o.WriteString("<td")
			o.heatStyle(v, h.Max)
			o.WriteByte('>')
			o.float(v/scale, 'f', prec)
			o.WriteString("</td>")
		}
		o.WriteString("</tr>\n")
	}
	o.WriteString("</table>\n")
}

// writeGaugeSVG draws one gauge's per-rank series as step lines over
// the session grid of a sampled session.
func writeGaugeSVG(o *htmlOut, f *sessionFold, g Gauge) {
	s := f.s
	lo, hi, vmax := f.gauge[g].lo, f.gauge[g].hi, f.gauge[g].max
	if hi < lo || vmax <= 0 {
		return
	}
	const W, H, pad = 720, 120, 8
	nb := hi - lo + 1
	xOf := func(b int64) float64 {
		return pad + (float64(b-lo)+0.5)/float64(nb)*(W-2*pad)
	}
	yOf := func(v float64) float64 {
		return H - pad - v/vmax*(H-2*pad)
	}
	o.WriteString("<h3>" + html.EscapeString(g.String()) + " (max ")
	o.float(vmax, 'g', 6)
	o.WriteString(", bucket ")
	o.float(s.BucketNs, 'f', 0)
	o.WriteString(" ns)</h3>\n<svg width=\"")
	o.int(W)
	o.WriteString("\" height=\"")
	o.int(H)
	o.WriteString("\" viewBox=\"0 0 ")
	o.int(W)
	o.WriteByte(' ')
	o.int(H)
	o.WriteString("\">\n")
	// Segment boundaries (root ends) as dashed verticals.
	for _, m := range s.Marks {
		b := int64(m / s.BucketNs)
		if b < lo || b > hi {
			continue
		}
		x := xOf(b)
		o.WriteString("<line x1=\"")
		o.float(x, 'f', 1)
		o.WriteString("\" y1=\"")
		o.int(pad)
		o.WriteString("\" x2=\"")
		o.float(x, 'f', 1)
		o.WriteString("\" y2=\"")
		o.int(H - pad)
		o.WriteString("\" stroke=\"#bbb\" stroke-dasharray=\"3,3\"/>\n")
	}
	for i, rk := range s.Ranks {
		pts := rk.Gauges[g]
		if len(pts) == 0 {
			continue
		}
		o.WriteString("<polyline fill=\"none\" stroke=\"" + rankPalette[i%len(rankPalette)] + "\" stroke-width=\"1.5\" points=\"")
		for j, pt := range pts {
			if j > 0 {
				o.WriteByte(' ')
			}
			o.float(xOf(pt.Bucket), 'f', 1)
			o.WriteByte(',')
			o.float(yOf(pt.V), 'f', 1)
		}
		o.WriteString("\"/>\n")
	}
	o.WriteString("</svg>\n<div class=\"legend\">")
	for i, rk := range s.Ranks {
		if len(rk.Gauges[g]) == 0 {
			continue
		}
		o.WriteString("<span><i style=\"background:" + rankPalette[i%len(rankPalette)] + "\"></i>rank ")
		o.int(rk.ID)
		o.WriteString("</span>")
	}
	o.WriteString("</div>\n")
}

// WriteHTMLReport renders the run as one self-contained HTML page: per
// session a rank×phase heatmap, gauge timelines (when sampling was on),
// and a rank×time heatmap of the inter-node wire volume.
func (run *Run) WriteHTMLReport(w io.Writer) error {
	o := &htmlOut{Writer: bufio.NewWriter(w)}
	o.WriteString("<!DOCTYPE html>\n<html><head><meta charset=\"utf-8\">\n")
	o.WriteString("<title>numabfs timeline report</title>\n<style>" + htmlStyle + "</style></head>\n<body>\n")
	o.WriteString("<h1>numabfs timeline report</h1>\n")
	for _, s := range run.Sessions {
		f := s.fold()
		o.WriteString("<h2>" + html.EscapeString(s.Label) + "</h2>\n<p class=\"meta\">")
		o.int(len(s.Ranks))
		o.WriteString(" ranks")
		if s.BucketNs > 0 {
			o.WriteString(", sampling grid ")
			o.float(s.BucketNs, 'f', 0)
			o.WriteString(" ns")
		}
		if s.LinkPeak > 0 {
			o.WriteString(", inter-node peak ")
			o.float(s.LinkPeak, 'g', 6)
			o.WriteString(" B/ns")
		}
		o.WriteString("</p>\n")

		writeHeatmap(o, f.phaseHeatmap(), 1e6, 3) // ms

		if s.BucketNs > 0 {
			for g := Gauge(0); g < NumGauges; g++ {
				writeGaugeSVG(o, f, g)
			}
			if hm := f.gaugeHeatmap(GaugeInterBytes, 24); hm != nil {
				writeHeatmap(o, hm, 1, 0)
			}
		}
	}
	o.WriteString("</body></html>\n")
	return o.Flush()
}
