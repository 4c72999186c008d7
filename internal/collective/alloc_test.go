package collective

// Allocation parity for the reliable transport on the collective hot
// loops: compiling the transport in must not add a single allocation to
// the no-plan path, a tuning-only plan must stay on the identity fast
// path, and even an active loss plan charges its protocol analytically —
// zero extra allocations per collective.

import (
	"testing"

	"numabfs/internal/fault"
	"numabfs/internal/mpi"
	"numabfs/internal/wire"
)

// allgatherAllocs measures the allocations of one ring allgather across
// the whole world, with world construction and plan injection excluded
// from the measured region. AllocsPerRun pins GOMAXPROCS to 1, so the
// count is stable run to run.
func allgatherAllocs(t *testing.T, plan *fault.Plan) float64 {
	t.Helper()
	const words = 256
	w := testWorld(t, 2, 4)
	if plan != nil {
		if err := w.InjectFaults(*plan); err != nil {
			t.Fatal(err)
		}
	}
	g := WorldGroup(w)
	l := EvenLayout(words, g.Size())
	bufs := make([][]uint64, w.NumProcs())
	for r := range bufs {
		bufs[r] = make([]uint64, words)
	}
	return testing.AllocsPerRun(5, func() {
		w.Run(func(p *mpi.Proc) {
			buf := bufs[p.Rank()]
			fillOwn(buf, l, g.Pos(p.Rank()))
			g.AllgatherRing(p, buf, l)
		})
	})
}

func TestTransportAllocParityOnCollectives(t *testing.T) {
	base := allgatherAllocs(t, nil)

	lossy := fault.Lossy(3, 0.05)
	if got := allgatherAllocs(t, &lossy); got != base {
		t.Errorf("loss plan changed allocations: %g vs %g per run (protocol must charge analytically)", got, base)
	}
}

// allocsPerCall returns what one more steady-state call of body costs,
// in heap allocations per rank: the difference between a World.Run
// making 1+extra calls and one making a single call, so everything a
// run pays once (goroutine spawns, WaitGroup) cancels out. A barrier
// separates the calls, as the engines' level-end allreduce does, so a
// fast rank never re-encodes into codec scratch a slow one still reads.
func allocsPerCall(w *mpi.World, body func(p *mpi.Proc)) float64 {
	const extra = 8
	run := func(calls int) func() {
		return func() {
			w.Run(func(p *mpi.Proc) {
				for i := 0; i < calls; i++ {
					body(p)
					p.Barrier()
				}
			})
		}
	}
	run(2)() // warm-up: message pools, lazily grown scratch, stream tables
	one := testing.AllocsPerRun(5, run(1))
	many := testing.AllocsPerRun(5, run(1+extra))
	return (many - one) / extra / float64(w.NumProcs())
}

// TestCollectiveStepsDoNotAllocate pins the typed-payload message path
// on the collectives the engines run every level: a 16-rank world makes
// every ring and pairwise exchange 15 steps deep and every subgroup ring
// 3 steps x 4 chunks, and a call may only allocate what it allocates
// once per call (its result table) — 0 per step. One
// boxed payload per step, the state before this bound, reads 15 here.
func TestCollectiveStepsDoNotAllocate(t *testing.T) {
	const words = 1024
	w := testWorld(t, 4, 4)
	np := w.NumProcs()
	g := WorldGroup(w)
	nc := NewNodeComm(w)
	l := EvenLayout(words, np)
	bufs := make([][]uint64, np)
	codecs := make([]*wire.Codec, np)
	lists := make([][][]int64, np)
	recvs := make([][][]int64, np)
	gathered, sent := make([][][]int64, np), make([][][]int64, np)
	ovs := make([]Overlap, np)
	lanes := make([][64]int64, np)
	for r := range bufs {
		bufs[r] = make([]uint64, words)
		fillVaried(bufs[r], l, r)
		codecs[r] = newTestCodec()
		lists[r] = make([][]int64, np)
		for d := range lists[r] {
			lists[r][d] = []int64{int64(r), int64(d)}
		}
	}
	// Looked up once: SharedWords formats its region name per call.
	inq := make([][]uint64, np)
	hooks := make([]func(w0, w1 int64) float64, np)
	w.Run(func(p *mpi.Proc) {
		inq[p.Rank()] = p.SharedWords("alloc-inq", words)
		fillVaried(inq[p.Rank()], l, p.Rank())
		hooks[p.Rank()] = chunkHook(inq[p.Rank()])
	})
	cases := []struct {
		name string
		// perCall is the call's fixed allocation count per rank.
		perCall float64
		body    func(p *mpi.Proc)
	}{
		{"AllgatherRing", 0, func(p *mpi.Proc) { g.AllgatherRing(p, bufs[p.Rank()], l) }},
		{"AllgatherRingCompressed", 0, func(p *mpi.Proc) {
			g.AllgatherRingCompressed(p, bufs[p.Rank()], l, codecs[p.Rank()])
		}},
		// A multi-segment step sends a run of positions over the sender's
		// buffer, which allocates nothing (16 per call when each step
		// boxed its segment list). Bruck's and the binomial gather's and
		// broadcast's stream tables are built once per group (13 and 12.5
		// per call when each round built its own); the leaders' node
		// layout is cached on the NodeComm (13 per call when it was not).
		{"AllgatherRecDouble", 0, func(p *mpi.Proc) { g.AllgatherRecDouble(p, bufs[p.Rank()], l) }},
		{"AllgatherBruck", 0, func(p *mpi.Proc) { g.AllgatherBruck(p, bufs[p.Rank()], l) }},
		{"LeaderAllgather", 0, func(p *mpi.Proc) { nc.Allgather(p, SchemeLeader, bufs[p.Rank()], nil, l, Exchange{}) }},
		{"AllreduceSumInt64", 0, func(p *mpi.Proc) { g.AllreduceSumInt64(p, int64(p.Rank())) }},
		// Replayed, the partial sums add in place (4 per call as
		// messages: a fresh copy of the sum per step).
		{"AllreduceSumVec64", 0, func(p *mpi.Proc) { g.AllreduceSumVec64(p, &lanes[p.Rank()]) }},
		// The codec list ring and exchange into retained tables.
		{"AllgathervInt64Compressed", 0, func(p *mpi.Proc) {
			gathered[p.Rank()] = g.AllgathervInt64(p, lists[p.Rank()][0], gathered[p.Rank()], codecs[p.Rank()])
		}},
		{"AlltoallvInt64IntoCompressed", 0, func(p *mpi.Proc) {
			sent[p.Rank()] = g.AlltoallvInt64Into(p, lists[p.Rank()], sent[p.Rank()], codecs[p.Rank()])
		}},
		// The result table indexed by source position — unless the caller
		// retains it, as the engines' top-down levels do.
		{"AlltoallvInt64", 1, func(p *mpi.Proc) { g.AlltoallvInt64(p, lists[p.Rank()]) }},
		{"AlltoallvInt64Into", 0, func(p *mpi.Proc) {
			recvs[p.Rank()] = g.AlltoallvInt64Into(p, lists[p.Rank()], recvs[p.Rank()], nil)
		}},
		// The sub-layout is cached on the NodeComm (2 per call when its
		// counts and displacements were allocated afresh).
		{"ParallelAllgatherInPlace", 0, func(p *mpi.Proc) { nc.ParallelAllgatherInPlace(p, inq[p.Rank()], l) }},
		{"ParallelAllgatherInPlaceCompressed", 0, func(p *mpi.Proc) {
			nc.ParallelAllgatherInPlaceCompressed(p, inq[p.Rank()], l, codecs[p.Rank()])
		}},
		// The segmented rings (the overlap level's pipeline), 4 chunks per
		// segment, raw and compressed, replayed at the subgroups' gates; the
		// last with a chunk hook, as the engine's top rung runs it.
		{"ParallelPipelined", 0, func(p *mpi.Proc) {
			nc.Allgather(p, SchemeParallel, inq[p.Rank()], bufs[p.Rank()], l, Exchange{Chunks: 4, Overlap: &ovs[p.Rank()]})
		}},
		{"ParallelPipelinedCompressed", 0, func(p *mpi.Proc) {
			nc.Allgather(p, SchemeParallel, inq[p.Rank()], bufs[p.Rank()], l,
				Exchange{Codec: codecs[p.Rank()], Chunks: 4, Overlap: &ovs[p.Rank()]})
		}},
		{"ParallelPipelinedCompressedHook", 0, func(p *mpi.Proc) {
			nc.Allgather(p, SchemeParallel, inq[p.Rank()], bufs[p.Rank()], l,
				Exchange{Codec: codecs[p.Rank()], Chunks: 4, OnChunk: hooks[p.Rank()], Overlap: &ovs[p.Rank()]})
		}},
	}
	for _, c := range cases {
		// The counts repeat exactly; the quarter only absorbs a stray
		// runtime allocation landing inside one of the measured runs.
		if got := allocsPerCall(w, c.body); got > c.perCall+0.25 {
			t.Errorf("%s: %g allocations per call per rank, want %g (0 per step)", c.name, got, c.perCall)
		}
	}
}
