package obs

import (
	"cmp"
	"fmt"
	"sort"
	"strings"

	"numabfs/internal/stats"
	"numabfs/internal/trace"
)

// Report is the aggregated metrics view of a recording: per-phase
// totals (the Fig. 11 breakdown, recomputed from the span stream rather
// than hand-maintained accumulators), communication counters by hop
// class, barrier-wait percentiles, and a per-level critical-path table
// naming the rank and phase that bounded each level.
type Report struct {
	Sessions []SessionReport `json:"sessions"`
}

// SessionReport aggregates one session (one benchmark configuration).
type SessionReport struct {
	Label string `json:"label"`
	Ranks int    `json:"ranks"`

	// PhaseNs maps every trace phase's name -> mean-across-ranks total
	// virtual ns, summed over every BFS root the session ran. Dividing by the root
	// count reproduces trace.Breakdown (within float rounding).
	PhaseNs map[string]float64 `json:"phase_ns"`
	// TotalNs is the summed PhaseNs.
	TotalNs float64 `json:"total_ns"`

	// Msgs / Bytes are sender-side point-to-point totals over all
	// ranks, by hop class ("intra-socket", "intra-node", "inter-node").
	// Bytes is wire volume; RawBytes is the logical (pre-compression)
	// volume and is only present when it differs — i.e. when the
	// compressed allgather was active.
	Msgs     map[string]int64 `json:"msgs"`
	Bytes    map[string]int64 `json:"bytes"`
	RawBytes map[string]int64 `json:"raw_bytes,omitempty"`
	// Collectives counts collective calls by algorithm over all ranks.
	Collectives map[string]int64 `json:"collective_calls,omitempty"`
	// Faults counts injected-fault events ("crash", "recover") over all
	// ranks; absent when no fault fired.
	Faults map[string]int64 `json:"fault_events,omitempty"`

	// Barrier wait distribution over every (rank, global barrier) pair.
	BarrierCount  int64   `json:"barrier_count"`
	BarrierP50Ns  float64 `json:"barrier_p50_ns"`
	BarrierP95Ns  float64 `json:"barrier_p95_ns"`
	BarrierMaxNs  float64 `json:"barrier_max_ns"`
	BarrierMeanNs float64 `json:"barrier_mean_ns"`

	// StallNsByRank is each rank's total stall-phase time: the
	// per-rank load-imbalance attribution of Fig. 11.
	StallNsByRank []float64 `json:"stall_ns_by_rank"`

	// Transport aggregates the reliable-transport counters over all
	// ranks; absent without a loss plan. RetransStallNsByRank is each
	// rank's extra receive latency versus a clean link (retransmission
	// waits, resequencing holds, acks) — the per-rank attribution of
	// where lossy links actually cost time.
	Transport            map[string]int64 `json:"transport,omitempty"`
	XportOverheadBytes   int64            `json:"transport_overhead_bytes,omitempty"`
	RetransStallNsByRank []float64        `json:"retrans_stall_ns_by_rank,omitempty"`

	// Overlap aggregates the pipelined collective's ledger over all
	// ranks; absent unless the overlapped allgather ran. Hidden is
	// transfer time that completed under the ranks' own decode/scan work,
	// exposed is time stalled in the pipeline's waits. OverlapEffByRank
	// is each rank's hidden/(hidden+exposed) share — the per-rank overlap
	// efficiency of the sixth optimization level.
	OverlapHiddenNs  float64   `json:"overlap_hidden_ns,omitempty"`
	OverlapExposedNs float64   `json:"overlap_exposed_ns,omitempty"`
	OverlapEffByRank []float64 `json:"overlap_efficiency_by_rank,omitempty"`

	// Levels is the critical-path table, aggregated across roots by
	// level index.
	Levels []LevelReport `json:"levels,omitempty"`
}

// LevelReport aggregates every instance of one BFS level index (one
// instance per root) into a critical-path row.
type LevelReport struct {
	Level     int    `json:"level"`
	Name      string `json:"name"` // "td level" or "bu level"
	Instances int    `json:"instances"`
	// MeanNs is the mean wall duration of the level (first span start
	// to last span end across ranks).
	MeanNs float64 `json:"mean_ns"`
	// BoundRank is the rank that most often arrived last at the level's
	// closing barrier — the critical path runs through it. -1 when no
	// instance of the level recorded a barrier stall.
	BoundRank int `json:"bound_rank"`
	// BoundPhase is that rank's dominant phase in the level.
	BoundPhase string `json:"bound_phase"`
	// MeanStallNs is the mean (per instance) stall summed over ranks.
	MeanStallNs float64 `json:"mean_stall_ns"`
}

// levelInstance is one (root, level) occurrence during aggregation.
type levelInstance struct {
	name  string
	start float64
	end   float64
	// boundRank is the last arrival: the rank whose stall span (the wait
	// at the level's barrier) starts latest, ties to the lowest rank.
	// Every level span ends at that barrier, so level-span ends cannot
	// tell the ranks apart. -1 until a stall span is seen.
	boundRank int
	arrival   float64
	stallNs   float64
	phaseNs   map[string]float64 // the bound rank's time per phase, stall excluded
}

// Report aggregates the run's raw streams.
func (run *Run) Report() *Report {
	rep := &Report{}
	for _, s := range run.Sessions {
		rep.Sessions = append(rep.Sessions, buildSessionReport(s))
	}
	return rep
}

func buildSessionReport(s *RunSession) SessionReport {
	f := s.fold()
	comm := &f.comm
	sr := SessionReport{
		Label:         s.Label,
		Ranks:         len(s.Ranks),
		PhaseNs:       make(map[string]float64),
		Msgs:          make(map[string]int64),
		Bytes:         make(map[string]int64),
		Collectives:   comm.Collectives,
		Faults:        comm.Faults,
		StallNsByRank: make([]float64, len(s.Ranks)),
	}
	for p, ns := range f.phase {
		if len(s.Ranks) > 0 {
			ns /= float64(len(s.Ranks)) // mean across ranks
		}
		sr.PhaseNs[trace.Phase(p).String()] = ns
		sr.TotalNs += ns
	}
	for i := range f.ranks {
		sr.StallNsByRank[i] = f.ranks[i].phase[trace.Stall]
	}

	for h := Hop(0); h < NumHops; h++ {
		sr.Msgs[h.String()] = comm.Msgs[h]
		sr.Bytes[h.String()] = comm.Bytes[h]
		if comm.RawBytes[h] != comm.Bytes[h] {
			count(&sr.RawBytes, h.String(), comm.RawBytes[h])
		}
	}
	if sr.Transport = comm.transport(); sr.Transport != nil {
		sr.XportOverheadBytes = comm.XportOverheadBys
		sr.RetransStallNsByRank = make([]float64, len(s.Ranks))
		for i, rk := range s.Ranks {
			sr.RetransStallNsByRank[i] = rk.Comm.XportOverheadNs
		}
	}
	if comm.OverlapHiddenNs != 0 || comm.OverlapExposedNs != 0 {
		sr.OverlapHiddenNs = comm.OverlapHiddenNs
		sr.OverlapExposedNs = comm.OverlapExposedNs
		sr.OverlapEffByRank = make([]float64, len(s.Ranks))
		for i, rk := range s.Ranks {
			if t := rk.Comm.OverlapHiddenNs + rk.Comm.OverlapExposedNs; t > 0 {
				sr.OverlapEffByRank[i] = rk.Comm.OverlapHiddenNs / t
			}
		}
	}
	sr.BarrierCount = comm.Barriers
	if comm.Barriers > 0 {
		sr.BarrierP50Ns = stats.Percentile(comm.BarrierWaits, 50)
		sr.BarrierP95Ns = stats.Percentile(comm.BarrierWaits, 95)
		sr.BarrierMaxNs = stats.Max(comm.BarrierWaits)
		sr.BarrierMeanNs = comm.BarrierWaitNs / float64(comm.Barriers)
	}

	sr.Levels = levelRows(s)
	return sr
}

// levelRows builds the critical-path table: one instance per (segment,
// level) from the level spans, then each instance's stall sum, last
// arrival and bounding phase from the phase spans inside it, then one
// row per level index.
func levelRows(s *RunSession) []LevelReport {
	instances := make(map[[2]int]*levelInstance) // (segment, level) -> instance
	for _, rk := range s.Ranks {
		for _, sp := range rk.Spans {
			if sp.Cat != CatLevel {
				continue
			}
			key := [2]int{s.segment(sp.Start), sp.Level}
			if li := instances[key]; li == nil {
				instances[key] = &levelInstance{name: sp.Name, start: sp.Start, end: sp.End, boundRank: -1}
			} else {
				li.start = min(li.start, sp.Start)
				li.end = max(li.end, sp.End)
			}
		}
	}
	stall := trace.Stall.String()
	// phaseSpans calls f with every phase span inside a level instance.
	phaseSpans := func(f func(rk *RunRank, sp Span, li *levelInstance)) {
		for _, rk := range s.Ranks {
			for _, sp := range rk.Spans {
				if sp.Cat != CatPhase {
					continue
				}
				if li := instances[[2]int{s.segment(sp.Start), sp.Level}]; li != nil {
					f(rk, sp, li)
				}
			}
		}
	}
	// Stall per instance, and its last arrival.
	phaseSpans(func(rk *RunRank, sp Span, li *levelInstance) {
		if sp.Name != stall {
			return
		}
		li.stallNs += sp.End - sp.Start
		if li.boundRank < 0 || sp.Start > li.arrival || (sp.Start == li.arrival && rk.ID < li.boundRank) {
			li.boundRank, li.arrival = rk.ID, sp.Start
		}
	})
	// The bounding rank's time per phase.
	phaseSpans(func(rk *RunRank, sp Span, li *levelInstance) {
		if rk.ID != li.boundRank || sp.Name == stall {
			return
		}
		if li.phaseNs == nil {
			li.phaseNs = make(map[string]float64)
		}
		li.phaseNs[sp.Name] += sp.End - sp.Start
	})

	// Fold by level index, each level's instances in segment order: map
	// iteration order would vary the float sums (and which instance
	// names the row) run to run, breaking byte-identical reports.
	keys := make([][2]int, 0, len(instances))
	for key := range instances {
		keys = append(keys, key)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][1] != keys[j][1] {
			return keys[i][1] < keys[j][1]
		}
		return keys[i][0] < keys[j][0]
	})
	var rows []LevelReport
	for i := 0; i < len(keys); {
		row := LevelReport{Level: keys[i][1], Name: instances[keys[i]].name}
		var sumNs, sumStall float64
		rankVotes, phaseVotes := make(map[int]int), make(map[string]float64)
		for ; i < len(keys) && keys[i][1] == row.Level; i++ {
			li := instances[keys[i]]
			row.Instances++
			sumNs += li.end - li.start
			sumStall += li.stallNs
			if li.boundRank >= 0 {
				rankVotes[li.boundRank]++
			}
			for name, ns := range li.phaseNs {
				phaseVotes[name] += ns
			}
		}
		row.MeanNs = sumNs / float64(row.Instances)
		row.MeanStallNs = sumStall / float64(row.Instances)
		row.BoundRank = top(rankVotes, -1)
		row.BoundPhase = top(phaseVotes, "")
		rows = append(rows, row)
	}
	return rows
}

// top returns the key with the most votes, ties to the smallest key for
// determinism; none when there are no votes.
func top[K cmp.Ordered, V int | float64](votes map[K]V, none K) K {
	best, bestV := none, V(-1)
	for k, v := range votes {
		if v > bestV || (v == bestV && k < best) {
			best, bestV = k, v
		}
	}
	return best
}

// String renders the report as aligned text.
func (r *Report) String() string {
	var b strings.Builder
	for i := range r.Sessions {
		if i > 0 {
			b.WriteByte('\n')
		}
		r.Sessions[i].render(&b)
	}
	return b.String()
}

func (sr *SessionReport) render(b *strings.Builder) {
	fmt.Fprintf(b, "== %s (%d ranks) ==\n", sr.Label, sr.Ranks)

	fmt.Fprintf(b, "phases (mean/rank):")
	for p := trace.Phase(0); p < trace.NumPhases; p++ {
		fmt.Fprintf(b, "  %s=%.2fms", p, sr.PhaseNs[p.String()]/1e6)
	}
	fmt.Fprintf(b, "  total=%.2fms\n", sr.TotalNs/1e6)

	fmt.Fprintf(b, "p2p traffic:")
	for h := Hop(0); h < NumHops; h++ {
		fmt.Fprintf(b, "  %s %d msgs / %.2f MiB", h, sr.Msgs[h.String()],
			float64(sr.Bytes[h.String()])/(1<<20))
		if raw, ok := sr.RawBytes[h.String()]; ok {
			fmt.Fprintf(b, " (raw %.2f MiB)", float64(raw)/(1<<20))
		}
	}
	b.WriteByte('\n')

	if len(sr.Collectives) > 0 {
		writeCounts(b, "collectives", sr.Collectives)
		b.WriteByte('\n')
	}
	if len(sr.Faults) > 0 {
		writeCounts(b, "fault events", sr.Faults)
		b.WriteByte('\n')
	}
	if len(sr.Transport) > 0 {
		writeCounts(b, "transport", sr.Transport)
		fmt.Fprintf(b, "  overhead=%.2f MiB\n", float64(sr.XportOverheadBytes)/(1<<20))
		if len(sr.RetransStallNsByRank) > 0 {
			worst, ns := worstRank(sr.RetransStallNsByRank, false)
			fmt.Fprintf(b, "retransmit stall: mean/rank=%.3fms  worst rank %d=%.3fms\n",
				stats.Mean(sr.RetransStallNsByRank)/1e6, worst, ns/1e6)
		}
	}

	if len(sr.OverlapEffByRank) > 0 {
		worst, eff := worstRank(sr.OverlapEffByRank, true)
		total := sr.OverlapHiddenNs + sr.OverlapExposedNs
		fmt.Fprintf(b, "overlap: hidden=%.3fms  exposed=%.3fms  efficiency=%.1f%%  worst rank %d=%.1f%%\n",
			sr.OverlapHiddenNs/1e6, sr.OverlapExposedNs/1e6,
			100*sr.OverlapHiddenNs/total, worst, 100*eff)
	}

	if sr.BarrierCount > 0 {
		fmt.Fprintf(b, "barrier wait: n=%d  p50=%.3fms  p95=%.3fms  max=%.3fms  mean=%.3fms\n",
			sr.BarrierCount, sr.BarrierP50Ns/1e6, sr.BarrierP95Ns/1e6,
			sr.BarrierMaxNs/1e6, sr.BarrierMeanNs/1e6)
	}

	if len(sr.StallNsByRank) > 0 {
		worst, ns := worstRank(sr.StallNsByRank, false)
		fmt.Fprintf(b, "stall: mean/rank=%.2fms  worst rank %d=%.2fms\n",
			stats.Mean(sr.StallNsByRank)/1e6, worst, ns/1e6)
	}

	if len(sr.Levels) > 0 {
		fmt.Fprintf(b, "critical path by level (mean over %d roots):\n", sr.Levels[0].Instances)
		fmt.Fprintf(b, "  %5s %-9s %10s %12s %12s %12s\n",
			"level", "procedure", "mean ms", "bound rank", "bound phase", "stall ms")
		for _, l := range sr.Levels {
			fmt.Fprintf(b, "  %5d %-9s %10.4f %12d %12s %12.4f\n",
				l.Level, l.Name, l.MeanNs/1e6, l.BoundRank, l.BoundPhase, l.MeanStallNs/1e6)
		}
	}
}

// writeCounts writes "head:" and m's entries in key order, without a
// newline.
func writeCounts(b *strings.Builder, head string, m map[string]int64) {
	b.WriteString(head + ":")
	for _, k := range sortedKeys(m) {
		fmt.Fprintf(b, "  %s=%d", k, m[k])
	}
}

// worstRank returns the rank with the largest value, or the smallest
// when lowest is set; ties go to the lowest rank.
func worstRank(v []float64, lowest bool) (int, float64) {
	at := 0
	for i, x := range v {
		if lowest && x < v[at] || !lowest && x > v[at] {
			at = i
		}
	}
	return at, v[at]
}
