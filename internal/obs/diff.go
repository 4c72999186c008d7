package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"numabfs/internal/trace"
)

// Run-diff profiler: given two exported runs (ReadRunFile /
// Recorder.Dump), attribute the total virtual-time delta per phase, per
// rank, and per session. In an optimization-level sweep each session is
// one level, so the session rows read as the per-level attribution the
// paper's Fig. 11-14 walk makes by hand. All times are totals over
// ranks (and over every BFS root the session ran): attribution weights
// rank-seconds, the quantity the optimizations actually move.

// RunDiff is the comparison of two runs (A = baseline, B = candidate).
type RunDiff struct {
	Sessions []SessionDiff `json:"sessions"`
	// AOnly/BOnly list session labels present in only one run (sessions
	// pair by index; the tail of the longer run is unpaired).
	AOnly []string `json:"a_only,omitempty"`
	BOnly []string `json:"b_only,omitempty"`
}

// SessionDiff compares one session pair.
type SessionDiff struct {
	LabelA string `json:"label_a"`
	LabelB string `json:"label_b"`

	// TotalNs sums every phase span over all ranks; Delta is B - A
	// (negative = candidate faster).
	TotalANs float64 `json:"total_a_ns"`
	TotalBNs float64 `json:"total_b_ns"`
	DeltaNs  float64 `json:"delta_ns"`

	// Phases attributes the delta per phase, ordered by |delta|
	// descending (ties in enum order); phases absent from both runs are
	// dropped.
	Phases []PhaseDelta `json:"phases"`
	// Ranks attributes the delta per rank ID, in rank order.
	Ranks []RankDelta `json:"ranks"`

	// Overlap ledger deltas (totals over ranks); zero when neither run
	// ran the pipelined collective.
	OverlapHiddenANs  float64 `json:"overlap_hidden_a_ns,omitempty"`
	OverlapHiddenBNs  float64 `json:"overlap_hidden_b_ns,omitempty"`
	OverlapExposedANs float64 `json:"overlap_exposed_a_ns,omitempty"`
	OverlapExposedBNs float64 `json:"overlap_exposed_b_ns,omitempty"`

	// Wire volume delta by hop class.
	BytesA [NumHops]int64 `json:"bytes_a"`
	BytesB [NumHops]int64 `json:"bytes_b"`
}

// PhaseDelta is one phase's contribution to a session's delta.
type PhaseDelta struct {
	Name    string  `json:"name"`
	ANs     float64 `json:"a_ns"`
	BNs     float64 `json:"b_ns"`
	DeltaNs float64 `json:"delta_ns"`
}

// RankDelta is one rank's contribution to a session's delta.
type RankDelta struct {
	Rank    int     `json:"rank"`
	ANs     float64 `json:"a_ns"`
	BNs     float64 `json:"b_ns"`
	DeltaNs float64 `json:"delta_ns"`
}

// DiffRuns compares baseline a against candidate b.
func DiffRuns(a, b *Run) *RunDiff {
	d := &RunDiff{}
	n := min(len(a.Sessions), len(b.Sessions))
	for i := 0; i < n; i++ {
		d.Sessions = append(d.Sessions, diffSession(a.Sessions[i], b.Sessions[i]))
	}
	for _, s := range a.Sessions[n:] {
		d.AOnly = append(d.AOnly, s.Label)
	}
	for _, s := range b.Sessions[n:] {
		d.BOnly = append(d.BOnly, s.Label)
	}
	return d
}

func diffSession(a, b *RunSession) SessionDiff {
	sd := SessionDiff{LabelA: a.Label, LabelB: b.Label}
	fa, fb := a.fold(), b.fold()
	for p := trace.Phase(0); p < trace.NumPhases; p++ {
		pa, pb := fa.phase[p], fb.phase[p]
		if pa == 0 && pb == 0 {
			continue
		}
		sd.Phases = append(sd.Phases, PhaseDelta{Name: p.String(), ANs: pa, BNs: pb, DeltaNs: pb - pa})
		sd.TotalANs += pa
		sd.TotalBNs += pb
	}
	sd.DeltaNs = sd.TotalBNs - sd.TotalANs
	// Stable attribution order: biggest mover first, enum order on ties
	// (SliceStable keeps the enum-ordered input for equal keys).
	sort.SliceStable(sd.Phases, func(i, j int) bool {
		return math.Abs(sd.Phases[i].DeltaNs) > math.Abs(sd.Phases[j].DeltaNs)
	})

	for id := 0; id < max(len(fa.ranks), len(fb.ranks)); id++ {
		if ra, rb := fa.rank(id), fb.rank(id); ra.timed || rb.timed {
			sd.Ranks = append(sd.Ranks, RankDelta{Rank: id, ANs: ra.ns, BNs: rb.ns, DeltaNs: rb.ns - ra.ns})
		}
	}

	sd.OverlapHiddenANs, sd.OverlapExposedANs = fa.comm.OverlapHiddenNs, fa.comm.OverlapExposedNs
	sd.OverlapHiddenBNs, sd.OverlapExposedBNs = fb.comm.OverlapHiddenNs, fb.comm.OverlapExposedNs
	sd.BytesA, sd.BytesB = fa.comm.Bytes, fb.comm.Bytes
	return sd
}

// String renders the diff as aligned text, deterministic for golden
// tests.
func (d *RunDiff) String() string {
	var b strings.Builder
	for i := range d.Sessions {
		if i > 0 {
			b.WriteByte('\n')
		}
		d.Sessions[i].render(&b)
	}
	for _, l := range d.AOnly {
		fmt.Fprintf(&b, "only in A: %s\n", l)
	}
	for _, l := range d.BOnly {
		fmt.Fprintf(&b, "only in B: %s\n", l)
	}
	return b.String()
}

// pct renders delta as a percentage of the baseline.
func pct(delta, base float64) string {
	if base == 0 {
		return "    n/a"
	}
	return fmt.Sprintf("%+6.1f%%", 100*delta/base)
}

func (sd *SessionDiff) render(b *strings.Builder) {
	fmt.Fprintf(b, "== %s -> %s ==\n", sd.LabelA, sd.LabelB)
	fmt.Fprintf(b, "total rank-time: %.4fms -> %.4fms  (%+.4fms, %s)\n",
		sd.TotalANs/1e6, sd.TotalBNs/1e6, sd.DeltaNs/1e6, pct(sd.DeltaNs, sd.TotalANs))

	if len(sd.Phases) > 0 {
		fmt.Fprintf(b, "  %-9s %12s %12s %12s %8s\n", "phase", "A ms", "B ms", "delta ms", "of A")
		for _, p := range sd.Phases {
			fmt.Fprintf(b, "  %-9s %12.4f %12.4f %+12.4f %8s\n",
				p.Name, p.ANs/1e6, p.BNs/1e6, p.DeltaNs/1e6, pct(p.DeltaNs, sd.TotalANs))
		}
	}
	if len(sd.Ranks) > 0 {
		fmt.Fprintf(b, "  %-9s %12s %12s %12s\n", "rank", "A ms", "B ms", "delta ms")
		for _, r := range sd.Ranks {
			fmt.Fprintf(b, "  %-9d %12.4f %12.4f %+12.4f\n",
				r.Rank, r.ANs/1e6, r.BNs/1e6, r.DeltaNs/1e6)
		}
	}
	if sd.OverlapHiddenANs != 0 || sd.OverlapHiddenBNs != 0 ||
		sd.OverlapExposedANs != 0 || sd.OverlapExposedBNs != 0 {
		fmt.Fprintf(b, "overlap hidden: %.4fms -> %.4fms  exposed: %.4fms -> %.4fms\n",
			sd.OverlapHiddenANs/1e6, sd.OverlapHiddenBNs/1e6,
			sd.OverlapExposedANs/1e6, sd.OverlapExposedBNs/1e6)
	}
	for h := Hop(0); h < NumHops; h++ {
		if sd.BytesA[h] == 0 && sd.BytesB[h] == 0 {
			continue
		}
		fmt.Fprintf(b, "%s bytes: %d -> %d (%+d)\n",
			h, sd.BytesA[h], sd.BytesB[h], sd.BytesB[h]-sd.BytesA[h])
	}
}
