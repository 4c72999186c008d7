package obs

import (
	"math"
	"sort"

	"numabfs/internal/trace"
)

// sessionFold is one pass over a session's spans and counters: the
// per-rank and per-session totals the metrics report, the run diff, the
// Prometheus exposition and the heatmaps all print, computed once so the
// readers cannot disagree. Sums run in (rank, span) order.
type sessionFold struct {
	s     *RunSession
	ranks []rankFold               // by rank index, which is the rank ID
	phase [trace.NumPhases]float64 // every rank's phase spans
	comm  Comm                     // every rank's counters, merged in rank order
	gauge [NumGauges]gaugeRange
}

// rankFold is one rank's phase time.
type rankFold struct {
	phase [trace.NumPhases]float64
	ns    float64 // every phase, summed in span order
	timed bool    // the rank recorded at least one phase span
}

// gaugeRange is the bucket range [lo, hi] in which any rank sampled a
// gauge, and the largest sample; hi < lo when no rank sampled it.
type gaugeRange struct {
	lo, hi int64
	max    float64
}

func (s *RunSession) fold() *sessionFold {
	f := &sessionFold{s: s, ranks: make([]rankFold, len(s.Ranks))}
	for g := range f.gauge {
		f.gauge[g] = gaugeRange{lo: math.MaxInt64, hi: math.MinInt64}
	}
	for i, rk := range s.Ranks {
		r := &f.ranks[i]
		for _, sp := range rk.Spans {
			if sp.Cat != CatPhase {
				continue
			}
			p, ok := trace.PhaseByName(sp.Name)
			if !ok {
				continue
			}
			d := sp.End - sp.Start
			r.phase[p] += d
			r.ns += d
			r.timed = true
			f.phase[p] += d
		}
		f.comm.merge(&rk.Comm)
		for g, pts := range rk.Gauges {
			gr := &f.gauge[g]
			for _, pt := range pts {
				gr.lo, gr.hi, gr.max = min(gr.lo, pt.Bucket), max(gr.hi, pt.Bucket), max(gr.max, pt.V)
			}
		}
	}
	return f
}

// rank returns rank i's fold, zero past the session's last rank.
func (f *sessionFold) rank(i int) rankFold {
	if i < len(f.ranks) {
		return f.ranks[i]
	}
	return rankFold{}
}

// transport returns the reliable-transport event counters by kind, or
// nil when no event fired.
func (c *Comm) transport() map[string]int64 {
	m := map[string]int64{
		"acks":             c.Acks,
		"corrupt-detected": c.CorruptDetected,
		"dups-delivered":   c.DupsDelivered,
		"reordered":        c.Reordered,
		"retransmits":      c.Retransmits,
	}
	for _, n := range m {
		if n != 0 {
			return m
		}
	}
	return nil
}

// sortedKeys returns m's keys in ascending order.
func sortedKeys(m map[string]int64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
