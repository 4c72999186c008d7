package chassis_test

import (
	"math"
	"slices"
	"testing"

	"numabfs/internal/bfs"
	"numabfs/internal/bfs2d"
	"numabfs/internal/chassis"
	"numabfs/internal/fault"
	"numabfs/internal/machine"
	"numabfs/internal/mpi"
	"numabfs/internal/msbfs"
	"numabfs/internal/obs"
	"numabfs/internal/rmat"
	"numabfs/internal/trace"
)

// TestRerunRecordsOneRecovery: a rerun from the root after a spare
// promotion, in the 1-D and in the 2-D engine, is recorded once per
// member, by the chassis: one "recover" event at the detection floor, a
// Recovery span [0, floor], and on the promoted spare alone a Reown span
// of the parked transfer.
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
		{"1-D spare promotion", func(t *testing.T) run {
			opts := bfs.DefaultOptions()
			opts.SpareRanks = 1
			build := func() *bfs.Runner {
				r, err := bfs.NewRunner(goldenConfig(), machine.PPN8Bind, params, opts)
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
			res := r.RunRoot(root)
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

// traversed is what TestOneRecoveryContract reads of one engine's run:
// the world it ran on, its summary and its parent arrays (per member
// for a single root, per lane for a batch).
type traversed struct {
	w       *mpi.World
	sum     chassis.Summary
	parents [][]int64
}

// TestOneRecoveryContract: the same mid-run permanent crash of rank 2
// goes through every engine and spare reservation the same way. The run
// completes with the clean run's parent tree, every member records
// exactly one "recover" event, at the detection floor, and the world
// finishes on one epoch per spare promotion — one where the engine
// parked a spare, none where the dead rank reruns in place.
func TestOneRecoveryContract(t *testing.T) {
	params := rmat.Graph500(goldenScale)
	// nineRanks adds a third node of three sockets to hold the 2-D
	// engine's single spare beside a 2x4 grid.
	nineRanks := machine.Scaled(goldenScale, goldenScale+12)
	nineRanks.Nodes, nineRanks.SocketsPerNode, nineRanks.WeakNode = 3, 3, -1
	oneD := func(spares int) func(*testing.T, *fault.Plan) traversed {
		return func(t *testing.T, plan *fault.Plan) traversed {
			opts := bfs.DefaultOptions()
			opts.SpareRanks = spares
			r, root := bfsRunner(t, opts)
			r.AttachObs(obs.NewRecorder().NewSession(t.Name()))
			if plan != nil {
				if err := r.InjectFaults(*plan); err != nil {
					t.Fatal(err)
				}
			}
			res := r.RunRoot(root)
			return traversed{r.W, res.Summary, r.ParentArrays()}
		}
	}
	twoD := func(cfg machine.Config, spares int) func(*testing.T, *fault.Plan) traversed {
		return func(t *testing.T, plan *fault.Plan) traversed {
			r, err := bfs2d.NewRunnerSpares(cfg, machine.PPN8Bind, bfs2d.Grid{R: 2, C: 4}, params, spares)
			if err != nil {
				t.Fatal(err)
			}
			r.Mode = bfs2d.ModeHybrid
			r.Setup()
			r.AttachObs(obs.NewRecorder().NewSession(t.Name()))
			if plan != nil {
				if err := r.InjectFaults(*plan); err != nil {
					t.Fatal(err)
				}
			}
			res := r.RunRoot(params.Roots(1, r.HasEdgeGlobal)[0])
			return traversed{r.W, res.Summary, r.ParentArrays()}
		}
	}
	batched := func(t *testing.T, plan *fault.Plan) traversed {
		r, err := msbfs.NewRunner(goldenConfig(), machine.PPN8Bind, params, bfs.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		r.Setup()
		r.AttachObs(obs.NewRecorder().NewSession(t.Name()))
		if plan != nil {
			if err := r.InjectFaults(*plan); err != nil {
				t.Fatal(err)
			}
		}
		roots := params.Roots(3, r.HasEdgeGlobal)
		res := r.RunBatch(roots)
		got := traversed{w: r.W, sum: res.Summary}
		for l := range roots {
			got.parents = append(got.parents, r.LaneParents(l))
		}
		return got
	}
	for _, tc := range []struct {
		name       string
		run        func(*testing.T, *fault.Plan) traversed
		members    int // ranks that hold a ledger
		promotions int
	}{
		{"1-D/spares=0", oneD(0), 8, 0},
		{"1-D/spares=1", oneD(1), 6, 1},
		{"2-D/spares=0", twoD(goldenConfig(), 0), 8, 0},
		{"2-D/spares=1", twoD(nineRanks, 1), 8, 1},
		{"batched", batched, 8, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			clean := tc.run(t, nil)
			plan := fault.Plan{Crashes: []fault.Crash{{Rank: 2, AtNs: 0.5 * clean.sum.TimeNs, Permanent: true}}}
			got := tc.run(t, &plan)
			if len(got.sum.Faults) != 1 || !got.sum.Faults[0].Permanent {
				t.Fatalf("faults %v, want the one permanent crash", got.sum.Faults)
			}
			if got.sum.Epoch != tc.promotions {
				t.Errorf("finished on epoch %d, want %d (one per promotion)", got.sum.Epoch, tc.promotions)
			}
			if len(got.parents) != len(clean.parents) {
				t.Fatalf("%d parent arrays, clean run has %d", len(got.parents), len(clean.parents))
			}
			for i := range got.parents {
				if !slices.Equal(got.parents[i], clean.parents[i]) {
					t.Fatalf("parent array %d differs from the clean run's", i)
				}
			}
			floor := got.w.Injector().DetectionTimeNs(plan.Crashes[0].AtNs)
			var recovering int
			for rank := 0; rank < got.w.NumProcs(); rank++ {
				var recovers int
				for _, s := range got.w.Proc(rank).Obs().Spans() {
					if s.Cat == obs.CatFault && s.Name == "recover" {
						recovers++
						if s.Start != floor {
							t.Errorf("rank %d: recover event at %v, want the floor %v", rank, s.Start, floor)
						}
					}
				}
				if recovers > 1 {
					t.Errorf("rank %d recorded %d recover events, want at most 1", rank, recovers)
				}
				recovering += recovers
			}
			if recovering != tc.members {
				t.Errorf("%d ranks recorded a recovery, want every one of the %d members", recovering, tc.members)
			}
		})
	}
}
