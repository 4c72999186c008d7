// Package trace records the per-phase execution-time breakdown the
// paper's profiling reports (Figs. 11-14): top-down computation and
// communication, bottom-up computation and communication, the top-down /
// bottom-up switch conversions, and stall (idle time from load imbalance,
// measured at the barrier preceding each communication phase).
package trace

import (
	"encoding/json"
	"fmt"
	"strings"
)

// Phase identifies one component of BFS execution time.
type Phase int

const (
	TDComp   Phase = iota // top-down computation
	TDComm                // top-down communication (alltoallv + allreduce)
	BUComp                // bottom-up computation
	BUComm                // bottom-up communication (the two allgathers)
	Switch                // td->bu and bu->td data-structure conversion
	Stall                 // idle time at phase barriers (load imbalance)
	Recovery              // crash detection: the rerun's wait for the detection floor
	Xport                 // reliable-transport stall (retransmits, backoff, protocol frames)
	Overlap               // communication hidden behind computation (pipelined allgather)
	Reown                 // a promoted spare adopting the dead rank's state
	NumPhases
)

// String implements fmt.Stringer.
func (p Phase) String() string {
	switch p {
	case TDComp:
		return "td-comp"
	case TDComm:
		return "td-comm"
	case BUComp:
		return "bu-comp"
	case BUComm:
		return "bu-comm"
	case Switch:
		return "switch"
	case Stall:
		return "stall"
	case Recovery:
		return "recovery"
	case Xport:
		return "xport"
	case Overlap:
		return "overlap"
	case Reown:
		return "reown"
	default:
		return fmt.Sprintf("Phase(%d)", int(p))
	}
}

// PhaseNames returns every phase's name in enum order — the canonical
// column order for exporters that key rows by phase name. The slice is
// freshly allocated; callers may keep it.
func PhaseNames() []string {
	names := make([]string, NumPhases)
	for p := Phase(0); p < NumPhases; p++ {
		names[p] = p.String()
	}
	return names
}

// PhaseByName resolves a phase name produced by Phase.String; ok is
// false for anything else. Exporters use it to fold span streams keyed
// by name back onto the enum without a quadratic name scan.
func PhaseByName(name string) (Phase, bool) {
	for p := Phase(0); p < NumPhases; p++ {
		if p.String() == name {
			return p, true
		}
	}
	return 0, false
}

// LevelStat records one BFS level as observed by a rank: which
// procedure ran it, the global frontier it produced, and the rank's time
// in it. The sequence of LevelStats is the frontier growth curve that
// drives the hybrid switch (and the sparsity regime of the summary
// bitmap).
type LevelStat struct {
	Level    int
	BottomUp bool
	// NF and MF are the allreduced size and edge sum of the frontier the
	// level discovered.
	NF, MF int64
	// Ns is the rank's virtual time spent in the level (all phases).
	Ns float64
}

// Breakdown accumulates virtual ns per phase, plus level counts.
type Breakdown struct {
	Ns       [NumPhases]float64
	TDLevels int
	BULevels int
	// BUCommCount is the number of bottom-up communication phases, for
	// Fig. 13's "average time per communication phase".
	BUCommCount int
	// OverlapExposedNs is the transfer time the pipelined allgather could
	// not hide (the rank stalled in Wait for it). Unlike Ns[Overlap] it is
	// already inside the wall-clock phases (BUComm/Switch), so it is an
	// annotation, not a phase.
	OverlapExposedNs float64
}

// Add charges ns to phase p.
func (b *Breakdown) Add(p Phase, ns float64) { b.Ns[p] += ns }

// Total returns the summed time over all phases. Ns[Overlap] is
// excluded: hidden communication ran concurrently with computation that
// is already charged to the wall-clock phases, so counting it would
// double-book time that never elapsed.
func (b *Breakdown) Total() float64 {
	var t float64
	for p, v := range b.Ns {
		if Phase(p) == Overlap {
			continue
		}
		t += v
	}
	return t
}

// Proportion returns phase p's share of the total (0 when total is 0).
func (b *Breakdown) Proportion(p Phase) float64 {
	t := b.Total()
	if t == 0 {
		return 0
	}
	return b.Ns[p] / t
}

// AvgBUCommNs returns the average time of one bottom-up communication
// phase (Fig. 13), or 0 if none ran.
func (b *Breakdown) AvgBUCommNs() float64 {
	if b.BUCommCount == 0 {
		return 0
	}
	return b.Ns[BUComm] / float64(b.BUCommCount)
}

// Merge adds o into b (summing phases and counts).
func (b *Breakdown) Merge(o Breakdown) {
	for i := range b.Ns {
		b.Ns[i] += o.Ns[i]
	}
	b.TDLevels += o.TDLevels
	b.BULevels += o.BULevels
	b.BUCommCount += o.BUCommCount
	b.OverlapExposedNs += o.OverlapExposedNs
}

// Scale multiplies every accumulator by f (for averaging over roots).
func (b *Breakdown) Scale(f float64) {
	for i := range b.Ns {
		b.Ns[i] *= f
	}
	b.OverlapExposedNs *= f
}

// MarshalJSON renders the breakdown with one named field per phase
// (rather than a bare Ns array indexed by Phase ordinal, which no JSON
// consumer could read), so tables that carry breakdowns — bfsbench
// -json — stay self-describing.
func (b Breakdown) MarshalJSON() ([]byte, error) {
	return json.Marshal(struct {
		TDCompNs     float64 `json:"td_comp_ns"`
		TDCommNs     float64 `json:"td_comm_ns"`
		BUCompNs     float64 `json:"bu_comp_ns"`
		BUCommNs     float64 `json:"bu_comm_ns"`
		SwitchNs     float64 `json:"switch_ns"`
		StallNs      float64 `json:"stall_ns"`
		RecoveryNs   float64 `json:"recovery_ns"`
		XportNs      float64 `json:"xport_ns"`
		OverlapNs    float64 `json:"overlap_ns"`
		OverlapExpNs float64 `json:"overlap_exposed_ns"`
		ReownNs      float64 `json:"reown_ns"`
		TotalNs      float64 `json:"total_ns"`
		TDLevels     int     `json:"td_levels"`
		BULevels     int     `json:"bu_levels"`
		BUCommCount  int     `json:"bu_comm_count"`
	}{
		TDCompNs: b.Ns[TDComp], TDCommNs: b.Ns[TDComm],
		BUCompNs: b.Ns[BUComp], BUCommNs: b.Ns[BUComm],
		SwitchNs: b.Ns[Switch], StallNs: b.Ns[Stall],
		RecoveryNs: b.Ns[Recovery], XportNs: b.Ns[Xport],
		OverlapNs: b.Ns[Overlap], OverlapExpNs: b.OverlapExposedNs,
		ReownNs:  b.Ns[Reown],
		TotalNs:  b.Total(),
		TDLevels: b.TDLevels, BULevels: b.BULevels, BUCommCount: b.BUCommCount,
	})
}

// String renders a one-line ms breakdown.
func (b *Breakdown) String() string {
	var sb strings.Builder
	for p := Phase(0); p < NumPhases; p++ {
		if p > 0 {
			sb.WriteString("  ")
		}
		fmt.Fprintf(&sb, "%s=%.2fms", p, b.Ns[p]/1e6)
	}
	fmt.Fprintf(&sb, "  total=%.2fms", b.Total()/1e6)
	return sb.String()
}
