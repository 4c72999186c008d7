package omp

import (
	"testing"

	"numabfs/internal/machine"
)

func team(threads int) Team {
	return Team{Cfg: machine.TableI(), Threads: threads, SocketsUsed: 1, BWShare: 1}
}

func TestForVisitsWholeRange(t *testing.T) {
	tm := team(8)
	var visited int64
	var chunks int
	res := tm.For(1000, 64, func(lo, hi int64, load *machine.PhaseLoad) {
		if lo < 0 || hi > 1000 || lo >= hi {
			t.Fatalf("bad chunk [%d, %d)", lo, hi)
		}
		visited += hi - lo
		chunks++
		load.CPUOps = hi - lo
	})
	if visited != 1000 {
		t.Fatalf("visited %d of 1000", visited)
	}
	if want := (1000 + 63) / 64; chunks != want {
		t.Fatalf("chunks = %d, want %d", chunks, want)
	}
	if res.Ns <= 0 {
		t.Fatalf("Ns = %g", res.Ns)
	}
	if res.Imbalance < 1 {
		t.Fatalf("Imbalance = %g < 1", res.Imbalance)
	}
}

func TestForZeroIterations(t *testing.T) {
	tm := team(4)
	res := tm.For(0, 64, func(lo, hi int64, load *machine.PhaseLoad) {
		t.Fatal("body called for empty range")
	})
	if res.Ns != 0 {
		t.Fatalf("Ns = %g for empty loop", res.Ns)
	}
}

func TestForDefaultChunk(t *testing.T) {
	tm := team(2)
	var chunks int
	tm.For(DefaultChunk*3, 0, func(lo, hi int64, load *machine.PhaseLoad) { chunks++ })
	if chunks != 3 {
		t.Fatalf("chunks = %d, want 3 with default chunk", chunks)
	}
}

func TestMoreThreadsFaster(t *testing.T) {
	work := func(tm Team) float64 {
		res := tm.For(1<<16, 256, func(lo, hi int64, load *machine.PhaseLoad) {
			load.Random = append(load.Random, machine.Access{
				Count: hi - lo, StructBytes: 1 << 30, Loc: machine.Local,
			})
		})
		return res.Ns
	}
	t1, t8 := work(team(1)), work(team(8))
	if t8 >= t1 {
		t.Fatalf("8 threads (%g) not faster than 1 (%g)", t8, t1)
	}
}

func TestImbalanceWithSkewedChunks(t *testing.T) {
	// One enormous chunk among tiny ones: the worker owning it
	// dominates, so the region cost approaches the serial cost of the
	// big chunk rather than total/threads.
	tm := team(8)
	res := tm.For(8*64, 64, func(lo, hi int64, load *machine.PhaseLoad) {
		if lo == 0 {
			load.CPUOps = 1 << 20
		} else {
			load.CPUOps = 1
		}
	})
	if res.Imbalance < 4 {
		t.Fatalf("Imbalance = %g, want >> 1 for one hot chunk", res.Imbalance)
	}
}

func TestForBalancedLimitsWorkers(t *testing.T) {
	tm := team(64)
	load := machine.PhaseLoad{CPUOps: 1 << 20}
	// 100 items in chunks of 256 -> a single worker can run.
	one := tm.ForBalanced(100, 256, load)
	all := tm.ForBalanced(1<<20, 256, load)
	if one <= all {
		t.Fatalf("few-item region (%g) should cost more than well-split one (%g)", one, all)
	}
	serial := tm.Cfg.PhaseTime(load, 1, tm.SocketsUsed, tm.BWShare)
	if diff := one - serial; diff < -1e-9 || diff > 1e-9 {
		t.Fatalf("single-chunk region %g != serial %g", one, serial)
	}
}

func TestSerialAndParallel(t *testing.T) {
	tm := team(8)
	load := machine.PhaseLoad{CPUOps: 800}
	s, p := tm.Cfg.PhaseTime(load, 1, tm.SocketsUsed, tm.BWShare), tm.Parallel(load)
	if s <= p {
		t.Fatalf("serial %g should exceed parallel %g", s, p)
	}
}

func TestTeamFor(t *testing.T) {
	cfg := machine.TableI()
	pl := machine.PlacementFor(cfg, machine.PPN8Bind)
	tm := TeamFor(cfg, pl)
	if tm.Threads != cfg.CoresPerSocket || tm.SocketsUsed != 1 || tm.BWShare != 1 {
		t.Fatalf("TeamFor(bind) = %+v", tm)
	}
}

// TestForAllocatesPerRegion: every chunk is handed the team's one
// PhaseLoad over a reused Random backing array, and the per-worker times
// and the aggregate live on the team too, so a warm region allocates
// nothing however many chunks it has, and the aggregate still lists
// every chunk's accesses in chunk order.
func TestForAllocatesPerRegion(t *testing.T) {
	tm := team(8)
	body := func(lo, hi int64, load *machine.PhaseLoad) {
		load.Random = append(load.Random,
			machine.Access{Count: lo, StructBytes: 8},
			machine.Access{Count: hi, StructBytes: 8},
			machine.Access{Count: hi - lo, StructBytes: 8})
	}
	tm.For(512*64, 64, body) // warm: the aggregate's capacity
	few := testing.AllocsPerRun(10, func() { tm.For(2*64, 64, body) })
	many := testing.AllocsPerRun(10, func() { tm.For(512*64, 64, body) })
	if many != 0 || few != 0 {
		t.Fatalf("%v allocations for 2 chunks, %v for 512; want none", few, many)
	}
	res := tm.For(3*64, 64, body)
	if len(res.Load.Random) != 9 || res.Load.Random[3].Count != 64 || res.Load.Random[7].Count != 192 {
		t.Fatalf("aggregate Random = %+v, want the three chunks' accesses in order", res.Load.Random)
	}
}
