package collective

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"testing"

	"numabfs/internal/fault"
	"numabfs/internal/machine"
	"numabfs/internal/mpi"
	"numabfs/internal/obs"
	"numabfs/internal/simnet"
	"numabfs/internal/wire"
)

// shiftOutcome is everything a run of the schedules leaves behind that
// either executor could get wrong.
type shiftOutcome struct {
	Words  []uint64 // every rank's segment buffers, in rank order
	Lists  []int64  // every rank's gathered and exchanged vectors and sums, flattened with lengths
	Clocks []uint64 // every rank's clock after each collective, as bits
	Stats  []wire.Stats
	Volume simnet.Volume
	Obs    []byte // the obs export
}

// shiftCodecs are the selectors the codec schedules run under: adaptive,
// each format forced, and the density threshold.
var shiftCodecs = []wire.Codec{
	{}, {Force: wire.FormatDense}, {Force: wire.FormatSparse}, {Force: wire.FormatRLE},
	{SparseMaxDensity: 1.0 / 64},
}

// shiftCase is one draw of runShifts: the world's shape and fault plan,
// the length of every segment and vector, the codec selectors, and the
// schedule families to run (gen* bits).
type shiftCase struct {
	nodes, ppn int
	plan       fault.Plan
	// size(kind, a, b) is the length of segment a (segWords), of member
	// a's list-ring vector (gatheredLen, codecListLen), or of member a's
	// alltoallv vector for b (exchangedLen, codecExchangeLen).
	size   func(kind, a, b int) int
	codecs []wire.Codec
	gens   uint
	chunks int // a pipelined ring's requested chunk count
}

const (
	segWords = iota
	gatheredLen
	exchangedLen
	codecListLen
	codecExchangeLen
)

const (
	genRing      = 1 << iota // the raw ring allgather
	genLists                 // the raw list ring and alltoallv
	genCodec                 // the codec ring, list ring and alltoallv, under each selector
	genAllreduce             // the scalar and 64-lane allreduces
	genLog                   // Bruck and, on a power-of-two world, recursive doubling
	genNode                  // with more than one rank per node, the parallel, leader and staged shared in_queue allgathers
	genPipe                  // the pipelined ring, raw and under the codec, with and without a chunk hook
	genAll       = 1<<iota - 1
)

// fixedCase is every schedule on a nodes x ppn world, with segments and
// vectors uneven and partly empty (every fifth segment), a plan that
// prices messages by virtual time (a bandwidth window, jitter) and slows
// one rank's compute without making anything lossy, and every selector
// below 17 ranks.
func fixedCase(nodes, ppn int) shiftCase {
	sel, chunks := shiftCodecs, 4
	if nodes*ppn > 16 {
		// The sweep at 128 ranks costs a minute under -race, and as much
		// again per extra chunk of the pipelined ring.
		sel, chunks = sel[:1], 1
	}
	return shiftCase{
		nodes: nodes, ppn: ppn,
		plan: fault.Plan{
			Seed:        7,
			BW:          []fault.BWEvent{{Node: 0, Src: -1, Dst: -1, Factor: 0.5, FromNs: 5e3, UntilNs: 4e4}},
			Stragglers:  []fault.Straggler{{Rank: 0, Factor: 3}},
			JitterMaxNs: 50,
		},
		size: func(kind, a, b int) int {
			return [...]int{a * 7 % 5 * 3, a % 3, (a + b) % 4, a % 4, (a*b + 1) % 5}[kind]
		},
		codecs: sel, gens: genAll, chunks: chunks,
	}
}

// chunkHook is a pipelined ring's stub hook over buf: it charges a
// function of the words it reads, so a call that sees a chunk before it
// has landed moves the clocks.
func chunkHook(buf []uint64) func(w0, w1 int64) float64 {
	return func(w0, w1 int64) float64 {
		ns := float64(w1 - w0)
		for _, v := range buf[w0:w1] {
			ns += float64(v % 97)
		}
		return ns
	}
}

// runShifts runs the schedule families of c on a world of its shape
// under its plan, from differing entry clocks, and returns what they
// leave behind.
func runShifts(t *testing.T, c shiftCase) shiftOutcome {
	t.Helper()
	w := testWorld(t, c.nodes, c.ppn)
	if err := w.InjectFaults(c.plan); err != nil {
		t.Fatal(err)
	}
	rec := obs.NewRecorder()
	sess := rec.NewSession("shift")
	sess.EnableSampling(2e3)
	w.AttachObs(sess)

	np := w.NumProcs()
	g := WorldGroup(w)
	offs := []int64{0}
	for i := 0; i < np; i++ {
		offs = append(offs, offs[i]+int64(c.size(segWords, i, 0)))
	}
	l := SegLayout(offs)
	words := l.TotalWords()
	vec := func(n, tag int) []int64 {
		if n == 0 {
			return nil
		}
		v := make([]int64, n)
		for i := range v {
			v[i] = int64(tag*1000 + i)
		}
		return v
	}
	bufs := make([][]uint64, np)
	leaderBufs := make([][]uint64, np)
	gathered := make([][][]int64, np)
	exchanged := make([][][]int64, np)
	clocks := make([][]uint64, np)
	codecs := make([][]*wire.Codec, np)
	for r := range codecs {
		for _, sel := range c.codecs[:len(c.codecs)*min(int(c.gens&genCodec), 1)] {
			sel.Team, sel.Loc = newTestCodec().Team, machine.Local
			codecs[r] = append(codecs[r], &sel)
		}
	}
	var nc *NodeComm
	if c.ppn > 1 && c.gens&genNode != 0 {
		nc = NewNodeComm(w)
	}
	w.Run(func(p *mpi.Proc) {
		r := p.Rank()
		mark := func() { clocks[r] = append(clocks[r], math.Float64bits(p.Clock())) }
		var ov Overlap
		markOv := func() {
			mark()
			clocks[r] = append(clocks[r], math.Float64bits(ov.HiddenNs), math.Float64bits(ov.ExposedNs), uint64(ov.Segments))
		}
		p.Compute(float64(r%5) * 700)
		if c.gens&genRing != 0 {
			bufs[r] = make([]uint64, words)
			fillOwn(bufs[r], l, r)
			g.AllgatherRing(p, bufs[r], l)
			mark()
		}
		if c.gens&genLists != 0 {
			gathered[r] = g.AllgathervInt64(p, vec(c.size(gatheredLen, r, 0), r), nil, nil)
			mark()
			send := make([][]int64, np)
			for d := range send {
				send[d] = vec(c.size(exchangedLen, r, d), r*np+d)
			}
			p.Compute(float64(r%3) * 900)
			exchanged[r] = g.AlltoallvInt64Into(p, send, nil, nil)
			mark()
		}
		// A codec serves one collective at a time: the barriers stand for
		// the engines' level-end allreduce.
		for _, cd := range codecs[r] {
			buf := make([]uint64, words)
			fillVaried(buf, l, r)
			g.AllgatherRingCompressed(p, buf, l, cd)
			mark()
			// A table reused across calls; the codec owns its entries, so
			// clearing the vectors sent afterwards changes none of them.
			mine, csend := vec(c.size(codecListLen, r, 0), r+1), make([][]int64, np)
			var tab [][]int64
			for i := 0; i < 2; i++ {
				p.Barrier()
				tab = g.AllgathervInt64(p, mine[:len(mine)-i*min(len(mine), 1)], tab, cd)
				mark()
			}
			for d := range csend {
				csend[d] = vec(c.size(codecExchangeLen, r, d), d-r)
			}
			p.Barrier()
			got := g.AlltoallvInt64Into(p, csend, nil, cd)
			mark()
			p.Barrier()
			clear(mine)
			for _, v := range csend {
				clear(v)
			}
			p.Barrier()
			bufs[r] = append(bufs[r], buf...)
			gathered[r] = append(append(gathered[r], tab...), got...)
		}
		if c.gens&genAllreduce != 0 {
			sum := g.AllreduceSumInt64(p, int64(r*7-3))
			mark()
			var lanes [64]int64
			for i := range lanes {
				lanes[i] = int64(r*i - 5)
			}
			g.AllreduceSumVec64(p, &lanes)
			mark()
			exchanged[r] = append(exchanged[r], []int64{sum}, lanes[:])
		}
		// The pipelined ring: raw, then under the codec, without and with a
		// hook; a barrier stands for the level-end allreduce again.
		for v := 0; c.gens&genPipe != 0 && v < 2+2*min(len(codecs[r]), 1); v++ {
			buf := make([]uint64, words)
			fillOwn(buf, l, r)
			x := Exchange{Chunks: c.chunks, Overlap: &ov}
			if v >= 2 {
				fillVaried(buf, l, r)
				x.Codec = codecs[r][0]
			}
			if v%2 == 1 {
				x.OnChunk = chunkHook(buf)
			}
			p.Barrier()
			ov = Overlap{}
			g.exchangeRing(p, buf, l, x)
			markOv()
			bufs[r] = append(bufs[r], buf...)
		}
		var gathers []func(*Group, *mpi.Proc, []uint64, Layout)
		if c.gens&genLog != 0 {
			gathers = append(gathers, (*Group).AllgatherBruck)
			if np&(np-1) == 0 {
				gathers = append(gathers, (*Group).AllgatherRecDouble)
			}
		}
		for _, gather := range gathers {
			buf := make([]uint64, words)
			fillOwn(buf, l, r)
			gather(g, p, buf, l)
			mark()
			bufs[r] = append(bufs[r], buf...)
		}
		if nc == nil {
			return
		}
		shared := p.SharedWords("shift-inq", words)
		fillOwn(shared, l, r)
		nc.Allgather(p, SchemeParallel, shared, nil, l, Exchange{})
		mark()
		leaderBufs[r] = make([]uint64, words)
		fillOwn(leaderBufs[r], l, r)
		nc.Allgather(p, SchemeLeader, leaderBufs[r], nil, l, Exchange{})
		mark()
		src := make([]uint64, words)
		fillOwn(src, l, r)
		nc.Allgather(p, SchemeSharedIn, p.SharedWords("shift-in", words), src, l, Exchange{})
		mark()
		if c.gens&genPipe != 0 { // every subgroup's ring into the node's buffer
			seg := p.SharedWords("shift-seg", words)
			fillOwn(seg, l, r)
			nc.Allgather(p, SchemeParallel, seg, nil, l, Exchange{Chunks: c.chunks, OnChunk: chunkHook(seg), Overlap: &ov})
			markOv()
		}
	})

	var out shiftOutcome
	for r := 0; r < np; r++ {
		out.Words = append(out.Words, bufs[r]...)
		out.Words = append(out.Words, leaderBufs[r]...)
		for _, tab := range [][][]int64{gathered[r], exchanged[r]} {
			for _, v := range tab {
				out.Lists = append(append(out.Lists, int64(len(v))), v...)
			}
		}
		out.Clocks = append(out.Clocks, clocks[r]...)
		for _, cd := range codecs[r] {
			out.Stats = append(out.Stats, cd.Stats())
		}
	}
	if nc != nil {
		for n := 0; n < c.nodes; n++ {
			out.Words = append(out.Words, w.SharedWords(fmt.Sprintf("shift-inq@node%d", n), words)...)
			out.Words = append(out.Words, w.SharedWords(fmt.Sprintf("shift-seg@node%d", n), words)...)
			out.Words = append(out.Words, w.SharedWords(fmt.Sprintf("shift-in@node%d", n), words)...)
		}
	}
	out.Volume = w.Net().Volume()
	var b bytes.Buffer
	if err := rec.Dump().WriteJSONL(&b); err != nil {
		t.Fatal(err)
	}
	out.Obs = b.Bytes()
	return out
}

// FuzzShiftExecutors: for a drawn group size (1-128) and shape, segment
// and vector lengths, schedule families, codec selector, pipelined
// chunk count (1-8, from the seed) and plan (a bandwidth window, a
// straggler, jitter; never a crash or a lossy link; for one bw draw in
// five, no plan at all, as the benchmark runs), replaying the schedules
// leaves exactly what running them as messages does.
func FuzzShiftExecutors(f *testing.F) {
	f.Add(uint8(7), uint8(1), uint8(genAll), uint8(0), uint64(1), uint8(128), uint8(3), uint8(50))
	f.Add(uint8(11), uint8(3), uint8(genAll), uint8(2), uint64(7), uint8(30), uint8(0), uint8(0))
	f.Add(uint8(127), uint8(7), uint8(genRing|genLists|genCodec), uint8(4), uint64(3), uint8(255), uint8(9), uint8(99))
	f.Add(uint8(15), uint8(3), uint8(genPipe|genCodec|genNode), uint8(3), uint64(5<<40|9), uint8(60), uint8(2), uint8(20))
	f.Add(uint8(127), uint8(7), uint8(genRing|genLists|genAllreduce|genLog|genNode), uint8(0), uint64(11), uint8(6), uint8(0), uint8(0))
	f.Fuzz(func(t *testing.T, n, ppn, gens, codec uint8, seed uint64, bw, straggle, jitter uint8) {
		np, pp := int(n)%128+1, int(ppn)%8+1
		for np%pp != 0 {
			pp--
		}
		c := shiftCase{
			nodes: np / pp, ppn: pp,
			plan: fault.Plan{
				Seed: seed,
				BW: []fault.BWEvent{{Node: int(bw) % (np / pp), Src: -1, Dst: -1,
					Factor: float64(bw%8+1) / 8, FromNs: float64(bw) * 100, UntilNs: float64(bw)*100 + 3e4}},
				Stragglers:  []fault.Straggler{{Rank: int(straggle) % np, Factor: 1 + float64(straggle%4)}},
				JitterMaxNs: float64(jitter),
			},
			size: func(kind, a, b int) int {
				h := seed ^ uint64(kind)<<56 ^ uint64(a)<<28 ^ uint64(b) // splitmix64
				h = (h ^ h>>30) * 0xbf58476d1ce4e5b9
				h = (h ^ h>>27) * 0x94d049bb133111eb
				return int((h ^ h>>31) % [...]uint64{13, 6, 6, 6, 6}[kind])
			},
			codecs: shiftCodecs[int(codec)%len(shiftCodecs):][:1],
			gens:   uint(gens),
			chunks: int(seed>>40%8) + 1,
		}
		if bw%5 == 1 {
			c.plan = fault.Plan{}
		}
		restore := runAsMessages()
		want := runShifts(t, c)
		restore()
		if got := runShifts(t, c); !reflect.DeepEqual(got, want) {
			t.Errorf("%d ranks (%d per node), families %#x: the replay differs from messages (volume %+v vs %+v, %d vs %d obs bytes)",
				np, pp, gens, got.Volume, want.Volume, len(got.Obs), len(want.Obs))
		}
	})
}

// TestShiftExecutorsAgree: replaying a schedule at the group's gate
// leaves exactly what running it as messages does — buffers, vectors,
// sums, every clock bit, the codec statistics, the network volume and
// the obs export — across group sizes and host worker counts, under
// fixedCase's time-dependent plan and, at 16x8, under the plans the
// benchmark's workloads run: none, and a static weak node (every message
// touching it degraded).
func TestShiftExecutorsAgree(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	type agreeCase struct {
		name string
		c    shiftCase
	}
	var cases []agreeCase
	for _, shape := range []struct{ nodes, ppn int }{{1, 1}, {1, 2}, {3, 1}, {7, 1}, {4, 4}, {16, 8}} {
		cases = append(cases, agreeCase{fmt.Sprintf("np%d", shape.nodes*shape.ppn), fixedCase(shape.nodes, shape.ppn)})
	}
	for _, plan := range []struct {
		name string
		plan fault.Plan
	}{{"noplan", fault.Plan{}}, {"weaknode", fault.WeakNode(5, 0.5)}} {
		c := fixedCase(16, 8)
		c.plan = plan.plan
		cases = append(cases, agreeCase{"np128-" + plan.name, c})
	}
	for _, ac := range cases {
		t.Run(ac.name, func(t *testing.T) {
			runtime.GOMAXPROCS(1)
			restore := runAsMessages()
			want := runShifts(t, ac.c)
			restore()
			if len(want.Words) == 0 && ac.c.nodes*ac.c.ppn > 1 {
				t.Fatal("nothing gathered")
			}
			if weak := len(ac.c.plan.BW) > 0 && ac.c.plan.BW[0].UntilNs <= 0; weak && want.Volume.DegradedMsgs == 0 {
				t.Fatal("no message degraded under a static weak node")
			}
			for _, procs := range []int{1, 2, 8} {
				runtime.GOMAXPROCS(procs)
				for _, messages := range []bool{false, true} {
					if messages {
						restore = runAsMessages()
					}
					got := runShifts(t, ac.c)
					if messages {
						restore()
					}
					if !reflect.DeepEqual(got, want) {
						t.Errorf("GOMAXPROCS %d, messages %v: outcome differs from messages at GOMAXPROCS 1 (volume %+v vs %+v, %d vs %d obs bytes)",
							procs, messages, got.Volume, want.Volume, len(got.Obs), len(want.Obs))
					}
				}
			}
		})
	}
}

// TestReplayParksOncePerMember: every schedule on 128 members, replayed
// at its gate, parks each member at most once, where as messages every
// member parks about once per step (per chunk step, pipelined). On 112
// members — the same world with one spare parked per node — the leader
// and shared in_queue allgathers (a tree or linear gather and a tree
// broadcast or node barrier around the leaders' ring) and the linear
// allreduce park each member at most twice.
func TestReplayParksOncePerMember(t *testing.T) {
	w, spared := testWorld(t, 16, 8), testWorld(t, 16, 8)
	g := WorldGroup(w)
	n := g.Size()
	l := EvenLayout(4096, n)
	var live, spares []int
	for r := range n {
		if r%8 == 7 {
			spares = append(spares, r)
		} else {
			live = append(live, r)
		}
	}
	spared.Park(spares)
	nc, g112, l112 := NewNodeCommRanks(spared, live), NewGroup(spared, live), EvenLayout(4096, len(live))
	bufs, codecs := make([][]uint64, n), make([]*wire.Codec, n)
	lists, tabs := make([][][]int64, n), make([][][]int64, n)
	for r := range bufs {
		bufs[r], codecs[r] = make([]uint64, 4096), newTestCodec()
		fillVaried(bufs[r], l, r)
		lists[r] = make([][]int64, n)
		for d := range lists[r] {
			lists[r][d] = []int64{int64(r), int64(d)}
		}
	}
	var lanes [64]int64
	ovs := make([]Overlap, n)
	for _, c := range []struct {
		name string
		w    *mpi.World // nil: w
		body func(p *mpi.Proc, r int)
	}{
		{"ring", nil, func(p *mpi.Proc, r int) { g.AllgatherRing(p, bufs[r], l) }},
		{"ring-codec", nil, func(p *mpi.Proc, r int) { g.AllgatherRingCompressed(p, bufs[r], l, codecs[r]) }},
		{"list-ring-codec", nil, func(p *mpi.Proc, r int) { tabs[r] = g.AllgathervInt64(p, lists[r][r], tabs[r], codecs[r]) }},
		{"alltoallv-codec", nil, func(p *mpi.Proc, r int) { tabs[r] = g.AlltoallvInt64Into(p, lists[r], tabs[r], codecs[r]) }},
		{"allreduce", nil, func(p *mpi.Proc, r int) { g.AllreduceSumInt64(p, int64(r)) }},
		{"allreduce-vec", nil, func(p *mpi.Proc, r int) { v := lanes; g.AllreduceSumVec64(p, &v) }},
		{"recdouble", nil, func(p *mpi.Proc, r int) { g.AllgatherRecDouble(p, bufs[r], l) }},
		{"bruck", nil, func(p *mpi.Proc, r int) { g.AllgatherBruck(p, bufs[r], l) }},
		{"ring-seg", nil, func(p *mpi.Proc, r int) { g.exchangeRing(p, bufs[r], l, Exchange{Chunks: 4, Overlap: &ovs[r]}) }},
		{"ring-seg-codec-hook", nil, func(p *mpi.Proc, r int) {
			g.exchangeRing(p, bufs[r], l, Exchange{Codec: codecs[r], Chunks: 4, OnChunk: chunkHook(bufs[r]), Overlap: &ovs[r]})
		}},
		{"leader", spared, func(p *mpi.Proc, r int) { nc.Allgather(p, SchemeLeader, bufs[r], nil, l112, Exchange{}) }},
		{"shared-in", spared, func(p *mpi.Proc, r int) {
			nc.Allgather(p, SchemeSharedIn, p.SharedWords("parks-inq", 4096), bufs[r], l112, Exchange{})
		}},
		{"allreduce-linear", spared, func(p *mpi.Proc, r int) { g112.AllreduceSumInt64(p, int64(r)) }},
	} {
		cw, members := w, n
		if c.w != nil {
			cw, members = c.w, len(live)
		}
		parks := func() int64 {
			before := cw.Parks()
			cw.Run(func(p *mpi.Proc) { c.body(p, p.Rank()) })
			return cw.Parks() - before
		}
		restore := runAsMessages()
		messages := parks()
		restore()
		tabs = make([][][]int64, n) // a codec table must not move between executors' calls
		if replay := parks(); replay > int64(2*members) {
			t.Errorf("replayed %s parked %d times, want <= %d", c.name, replay, 2*members)
		} else {
			t.Logf("%s on %d members: %d parks as messages, %d replayed", c.name, members, messages, replay)
		}
	}
}
