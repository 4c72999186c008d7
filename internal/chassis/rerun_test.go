package chassis_test

import (
	"math"
	"testing"

	"numabfs/internal/bfs"
	"numabfs/internal/bfs2d"
	"numabfs/internal/fault"
	"numabfs/internal/machine"
	"numabfs/internal/mpi"
	"numabfs/internal/obs"
	"numabfs/internal/rmat"
	"numabfs/internal/trace"
)

// TestRerunRecordsOneRecovery: a rerun from the root after a spare
// promotion — the 1-D engine's before its first checkpoint, the 2-D
// engine's always — is recorded once per member, by the chassis: one
// "recover" event at the detection floor, a Recovery span [0, floor],
// and on the promoted spare alone a Reown span of the parked transfer.
func TestRerunRecordsOneRecovery(t *testing.T) {
	params := rmat.Graph500(goldenScale)
	type run struct {
		w       *mpi.World
		res     bfs.RootResult
		members int
	}
	for _, tc := range []struct {
		name     string
		traverse func(*testing.T) run
	}{
		{"1-D spare before the first checkpoint", func(t *testing.T) run {
			opts := bfs.DefaultOptions()
			opts.SpareRanks, opts.Recovery = 1, bfs.RecoverSpare
			r, err := bfs.NewRunner(goldenConfig(), machine.PPN8Bind, params, opts)
			if err != nil {
				t.Fatal(err)
			}
			r.Setup()
			r.AttachObs(obs.NewRecorder().NewSession(t.Name()))
			if err := r.InjectFaults(fault.Plan{Crashes: []fault.Crash{{Rank: 2, Permanent: true}}}); err != nil {
				t.Fatal(err)
			}
			res := r.RunRoot(params.Roots(1, r.HasEdgeGlobal)[0])
			return run{r.W, res, len(r.ParentArrays())}
		}},
		{"2-D spare promotion", func(t *testing.T) run {
			build := func() *bfs2d.Runner {
				r, err := bfs2d.NewRunnerSpares(goldenConfig(), machine.PPN8Bind, bfs2d.Grid{R: 2, C: 2}, params, 4)
				if err != nil {
					t.Fatal(err)
				}
				r.Setup()
				return r
			}
			r := build()
			root := params.Roots(1, r.HasEdgeGlobal)[0]
			clean := r.RunRoot(root)
			// A fresh runner, so the session timeline starts at the root.
			r = build()
			r.AttachObs(obs.NewRecorder().NewSession(t.Name()))
			if err := r.InjectFaults(fault.Plan{Crashes: []fault.Crash{{Rank: 2, AtNs: 0.5 * clean.TimeNs, Permanent: true}}}); err != nil {
				t.Fatal(err)
			}
			return run{r.W, r.RunRoot(root), 4}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got := tc.traverse(t)
			if len(got.res.Faults) != 1 || got.res.Epoch != 1 {
				t.Fatalf("%d faults on epoch %d, want one promotion", len(got.res.Faults), got.res.Epoch)
			}
			var floor float64
			for _, s := range got.w.Proc(2).Obs().Spans() {
				if s.Cat == obs.CatFault && s.Name == "detect" {
					floor = s.Start
				}
			}
			// Finish averages over the members; one of them paid it all.
			reown := got.res.Breakdown.Ns[trace.Reown] * float64(got.members)
			near := func(a, b float64) bool { return math.Abs(a-b) <= 1e-9*floor }
			var recovering, reowning int
			for rank := 0; rank < got.w.NumProcs(); rank++ {
				var recovers, recoveries, reowns int
				for _, s := range got.w.Proc(rank).Obs().Spans() {
					switch {
					case s.Cat == obs.CatFault && s.Name == "recover":
						recovers++
						if s.Start != floor {
							t.Errorf("rank %d: recover event at %v, want the floor %v", rank, s.Start, floor)
						}
					case s.Name == trace.Recovery.String():
						recoveries++
						if s.Start != 0 || s.End != floor {
							t.Errorf("rank %d: Recovery span [%v, %v], want [0, %v]", rank, s.Start, s.End, floor)
						}
					case s.Name == trace.Reown.String():
						reowns++
						if !near(s.Start, floor) || !near(s.End-s.Start, reown) {
							t.Errorf("rank %d: Reown span [%v, %v], want %v ns from the floor %v", rank, s.Start, s.End, reown, floor)
						}
					}
				}
				if recovers != recoveries || recovers > 1 || reowns > recovers {
					t.Errorf("rank %d: %d recover events, %d Recovery and %d Reown spans; want one rerun at most",
						rank, recovers, recoveries, reowns)
				}
				recovering += recovers
				reowning += reowns
			}
			if floor == 0 || reown <= 0 || recovering != got.members || reowning != 1 {
				t.Errorf("floor %v, re-own %v: %d members recorded a rerun, %d a re-own; want %d and 1",
					floor, reown, recovering, reowning, got.members)
			}
		})
	}
}
