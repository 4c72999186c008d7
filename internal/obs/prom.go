package obs

import (
	"bufio"
	"fmt"
	"io"
	"strconv"

	"numabfs/internal/stats"
	"numabfs/internal/trace"
)

// Prometheus-style text exposition of a run snapshot. One write per
// run (virtual time has no live scrape), so every family is emitted
// fully with HELP/TYPE headers and label sets in a fixed order:
// sessions by index, ranks by ID, phases/hops/gauges in enum order,
// map keys sorted. Floats format with strconv's shortest round-trip
// form, so a deterministic recording yields byte-identical text.

// promF renders a float the way Prometheus clients do.
func promF(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// promEsc escapes a label value per the exposition format.
func promEsc(s string) string {
	out := make([]byte, 0, len(s))
	for i := 0; i < len(s); i++ {
		switch c := s[i]; c {
		case '\\':
			out = append(out, '\\', '\\')
		case '"':
			out = append(out, '\\', '"')
		case '\n':
			out = append(out, '\\', 'n')
		default:
			out = append(out, c)
		}
	}
	return string(out)
}

// WritePromText writes the run as a Prometheus text exposition.
func (run *Run) WritePromText(w io.Writer) error {
	bw := bufio.NewWriter(w)

	family := func(name, help, typ string) {
		fmt.Fprintf(bw, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
	}
	folds := make([]*sessionFold, len(run.Sessions))
	for si, s := range run.Sessions {
		folds[si] = s.fold()
	}
	// eachRank calls line for every rank of every session with the
	// rank's fold and its session/rank label pair.
	eachRank := func(line func(s *RunSession, rk *RunRank, f rankFold, labels string)) {
		for si, s := range run.Sessions {
			for i, rk := range s.Ranks {
				line(s, rk, folds[si].ranks[i], fmt.Sprintf(`session="%s",rank="%d"`, promEsc(s.Label), rk.ID))
			}
		}
	}

	family("numabfs_phase_ns_total", "Virtual ns charged to each phase, per rank.", "counter")
	eachRank(func(_ *RunSession, _ *RunRank, f rankFold, labels string) {
		for p, ns := range f.phase {
			fmt.Fprintf(bw, "numabfs_phase_ns_total{%s,phase=\"%s\"} %s\n", labels, trace.Phase(p), promF(ns))
		}
	})

	family("numabfs_p2p_msgs_total", "Sender-side point-to-point messages by hop class.", "counter")
	eachRank(func(_ *RunSession, rk *RunRank, _ rankFold, labels string) {
		for h := Hop(0); h < NumHops; h++ {
			fmt.Fprintf(bw, "numabfs_p2p_msgs_total{%s,hop=\"%s\"} %d\n", labels, h, rk.Comm.Msgs[h])
		}
	})
	family("numabfs_p2p_bytes_total", "Sender-side wire bytes by hop class.", "counter")
	eachRank(func(_ *RunSession, rk *RunRank, _ rankFold, labels string) {
		for h := Hop(0); h < NumHops; h++ {
			fmt.Fprintf(bw, "numabfs_p2p_bytes_total{%s,hop=\"%s\"} %d\n", labels, h, rk.Comm.Bytes[h])
		}
	})

	family("numabfs_collective_calls_total", "Collective calls by algorithm.", "counter")
	eachRank(func(_ *RunSession, rk *RunRank, _ rankFold, labels string) {
		for _, name := range sortedKeys(rk.Comm.Collectives) {
			fmt.Fprintf(bw, "numabfs_collective_calls_total{%s,op=\"%s\"} %d\n",
				labels, promEsc(name), rk.Comm.Collectives[name])
		}
	})

	// Barrier waits as a Prometheus histogram, bucketed by the fixed-grid
	// stats.Histogram over each session's observed wait range.
	family("numabfs_barrier_wait_ns", "Global-barrier wait distribution per session.", "histogram")
	for si, s := range run.Sessions {
		all := folds[si].comm.BarrierWaits
		if len(all) == 0 {
			continue
		}
		hi := stats.Max(all)
		if hi <= 0 {
			hi = 1
		}
		h := stats.NewHistogram(0, hi*(1+1e-9), 16)
		for _, v := range all {
			h.Add(v)
		}
		label := promEsc(s.Label)
		cum := h.Under
		for i, c := range h.Counts {
			cum += c
			le := h.Lo + (h.Hi-h.Lo)*float64(i+1)/float64(len(h.Counts))
			fmt.Fprintf(bw, "numabfs_barrier_wait_ns_bucket{session=\"%s\",le=\"%s\"} %d\n",
				label, promF(le), cum)
		}
		fmt.Fprintf(bw, "numabfs_barrier_wait_ns_bucket{session=\"%s\",le=\"+Inf\"} %d\n", label, h.N)
		fmt.Fprintf(bw, "numabfs_barrier_wait_ns_sum{session=\"%s\"} %s\n", label, promF(h.Sum))
		fmt.Fprintf(bw, "numabfs_barrier_wait_ns_count{session=\"%s\"} %d\n", label, h.N)
	}

	family("numabfs_transport_events_total", "Reliable-transport protocol events.", "counter")
	eachRank(func(_ *RunSession, rk *RunRank, _ rankFold, labels string) {
		kinds := rk.Comm.transport()
		for _, kind := range sortedKeys(kinds) {
			fmt.Fprintf(bw, "numabfs_transport_events_total{%s,kind=\"%s\"} %d\n", labels, kind, kinds[kind])
		}
	})

	family("numabfs_overlap_ns_total", "Pipelined-collective transfer time by visibility.", "counter")
	eachRank(func(_ *RunSession, rk *RunRank, _ rankFold, labels string) {
		if c := &rk.Comm; c.OverlapHiddenNs != 0 || c.OverlapExposedNs != 0 {
			fmt.Fprintf(bw, "numabfs_overlap_ns_total{%s,state=\"exposed\"} %s\n", labels, promF(c.OverlapExposedNs))
			fmt.Fprintf(bw, "numabfs_overlap_ns_total{%s,state=\"hidden\"} %s\n", labels, promF(c.OverlapHiddenNs))
		}
	})

	// Gauge series: one sample per (rank, gauge, bucket) with the bucket's
	// virtual start time as a label — a replayable timeline, not a scrape.
	family("numabfs_gauge", "Virtual-time gauge samples on the sampling grid.", "gauge")
	eachRank(func(s *RunSession, rk *RunRank, _ rankFold, labels string) {
		for g := Gauge(0); g < NumGauges; g++ {
			for _, pt := range rk.Gauges[g] {
				fmt.Fprintf(bw, "numabfs_gauge{%s,gauge=\"%s\",t_ns=\"%s\"} %s\n",
					labels, g, promF(float64(pt.Bucket)*s.BucketNs), promF(pt.V))
			}
		}
	})

	// Derived link utilization: inter-node bytes per bucket over the
	// per-stream peak the attaching world published.
	family("numabfs_link_utilization", "Inter-node link utilization per bucket (bytes over peak).", "gauge")
	eachRank(func(s *RunSession, rk *RunRank, _ rankFold, labels string) {
		if s.LinkPeak <= 0 || s.BucketNs <= 0 {
			return
		}
		for _, pt := range rk.Gauges[GaugeInterBytes] {
			fmt.Fprintf(bw, "numabfs_link_utilization{%s,t_ns=\"%s\"} %s\n",
				labels, promF(float64(pt.Bucket)*s.BucketNs), promF(pt.V/(s.LinkPeak*s.BucketNs)))
		}
	})

	return bw.Flush()
}
