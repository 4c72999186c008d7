package chassis_test

import (
	"fmt"
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
// of the parked transfer. Rank 1 dies; a spare of its node takes over.
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
			if err := r.InjectFaults(fault.Plan{Crashes: []fault.Crash{{Rank: 1, AtNs: 0.5 * clean.TimeNs, Permanent: true}}}); err != nil {
				t.Fatal(err)
			}
			res := r.RunRoot(root)
			return run{r.W, res, len(r.ParentArrays())}
		}},
		{"2-D spare promotion", func(t *testing.T) run {
			build := func() *bfs2d.Runner {
				// 2 spares per node leave a 2x2 grid of 4 active ranks.
				r, err := bfs2d.NewRunner(goldenConfig(), machine.PPN8Bind, bfs2d.Grid{R: 2, C: 2}, params, 2)
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
			if err := r.InjectFaults(fault.Plan{Crashes: []fault.Crash{{Rank: 1, AtNs: 0.5 * clean.TimeNs, Permanent: true}}}); err != nil {
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
			for _, s := range got.w.Proc(1).Obs().Spans() {
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
// the world it ran on, its member count, its summary and its parent
// arrays (per member for a single root, per lane for a batch).
type traversed struct {
	w       *mpi.World
	members int
	sum     chassis.Summary
	parents [][]int64
}

// TestOneRecoveryContract: the same mid-run permanent crash of rank 1
// goes through every engine and spare reservation the same way. The run
// completes with the clean run's parent trees, every member records
// exactly one "recover" event, at the detection floor, and the world
// finishes on epoch 1 where a spare of the dead rank's node took its
// position, on epoch 0 where none was parked and the dead rank reran in
// place.
func TestOneRecoveryContract(t *testing.T) {
	params := rmat.Graph500(goldenScale)
	// sixRanks has two nodes of three sockets: one spare per node leaves
	// the 2-D engine a 2x2 grid.
	sixRanks := goldenConfig()
	sixRanks.SocketsPerNode = 3
	observe := func(t *testing.T, c *chassis.Core, plan *fault.Plan) {
		c.AttachObs(obs.NewRecorder().NewSession(t.Name()))
		if plan != nil {
			if err := c.InjectFaults(*plan); err != nil {
				t.Fatal(err)
			}
		}
	}
	engines := []struct {
		name string
		run  func(t *testing.T, spares int, plan *fault.Plan) traversed
	}{
		{"1-D", func(t *testing.T, spares int, plan *fault.Plan) traversed {
			opts := bfs.DefaultOptions()
			opts.SpareRanks = spares
			r, root := bfsRunner(t, opts)
			observe(t, &r.Core, plan)
			res := r.RunRoot(root)
			return traversed{r.W, len(r.Members.Ranks()), res.Summary, r.ParentArrays()}
		}},
		{"2-D", func(t *testing.T, spares int, plan *fault.Plan) traversed {
			cfg, grid := goldenConfig(), bfs2d.Grid{R: 2, C: 4}
			if spares > 0 {
				cfg, grid = sixRanks, bfs2d.Grid{R: 2, C: 2}
			}
			r, err := bfs2d.NewRunner(cfg, machine.PPN8Bind, grid, params, spares)
			if err != nil {
				t.Fatal(err)
			}
			r.Mode = bfs2d.ModeHybrid
			r.Setup()
			observe(t, &r.Core, plan)
			res := r.RunRoot(params.Roots(1, r.HasEdgeGlobal)[0])
			return traversed{r.W, len(r.Members.Ranks()), res.Summary, r.ParentArrays()}
		}},
		{"batched", func(t *testing.T, spares int, plan *fault.Plan) traversed {
			opts := bfs.DefaultOptions()
			opts.SpareRanks = spares
			r, err := msbfs.NewRunner(goldenConfig(), machine.PPN8Bind, params, opts)
			if err != nil {
				t.Fatal(err)
			}
			r.Setup()
			observe(t, &r.Core, plan)
			roots := params.Roots(3, r.HasEdgeGlobal)
			res := r.RunBatch(roots)
			got := traversed{w: r.W, members: len(r.Members.Ranks()), sum: res.Summary}
			for l := range roots {
				got.parents = append(got.parents, r.LaneParents(l))
			}
			return got
		}},
	}
	for _, e := range engines {
		for spares := 0; spares <= 1; spares++ {
			t.Run(fmt.Sprintf("%s/spares=%d", e.name, spares), func(t *testing.T) {
				clean := e.run(t, spares, nil)
				plan := fault.Plan{Crashes: []fault.Crash{{Rank: 1, AtNs: 0.5 * clean.sum.TimeNs, Permanent: true}}}
				got := e.run(t, spares, &plan)
				if len(got.sum.Faults) != 1 || !got.sum.Faults[0].Permanent {
					t.Fatalf("faults %v, want the one permanent crash", got.sum.Faults)
				}
				if got.sum.Epoch != spares {
					t.Errorf("finished on epoch %d, want %d (one per promotion)", got.sum.Epoch, spares)
				}
				if len(got.parents) != len(clean.parents) {
					t.Fatalf("%d parent arrays, clean run has %d", len(got.parents), len(clean.parents))
				}
				for i := range got.parents {
					if !slices.Equal(got.parents[i], clean.parents[i]) {
						t.Fatalf("parent array %d differs from the clean run's", i)
					}
				}
				floor := fault.DetectionTimeNs(plan.Crashes[0].AtNs)
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
					if rank == 1 && spares > 0 && recovers > 0 {
						t.Errorf("dead rank 1 reran although a spare of its node was parked")
					}
					recovering += recovers
				}
				if recovering != got.members {
					t.Errorf("%d ranks recorded a recovery, want every one of the %d members", recovering, got.members)
				}
			})
		}
	}
}
