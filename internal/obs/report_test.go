package obs

import (
	"testing"

	"numabfs/internal/trace"
)

// TestReportBoundRankIsLastArrival: every level span ends at the
// level's closing barrier, so the bound rank is the one that reached
// the barrier last — the latest stall start — not the first of the
// equal level ends. Ties go to the lowest rank.
func TestReportBoundRankIsLastArrival(t *testing.T) {
	rec := NewRecorder()
	s := rec.NewSession("arrivals")
	rks := []*Rank{s.AddRank(0, 0, 0), s.AddRank(1, 0, 1), s.AddRank(2, 1, 0)}
	// Level 0: rank 2 computes longest and arrives last (t=90).
	// Level 1: ranks 0 and 1 tie for the last arrival (t=160).
	arrive := [][]float64{{40, 70, 90}, {160, 160, 130}}
	for lvl, at := range arrive {
		start, end := float64(100*lvl), float64(100*lvl+95)
		for i, rk := range rks {
			rk.PhaseSpan(trace.TDComp, lvl, start, at[i])
			rk.PhaseSpan(trace.Stall, lvl, at[i], end-2)
			rk.PhaseSpan(trace.TDComm, lvl, end-2, end)
			rk.LevelSpan(false, lvl, start, end)
		}
	}
	levels := rec.Dump().Report().Sessions[0].Levels
	if len(levels) != 2 {
		t.Fatalf("levels = %+v", levels)
	}
	for i, want := range []int{2, 0} {
		if l := levels[i]; l.BoundRank != want || l.BoundPhase != trace.TDComp.String() {
			t.Errorf("level %d: bound rank %d phase %q, want rank %d phase %q",
				l.Level, l.BoundRank, l.BoundPhase, want, trace.TDComp)
		}
	}
}
