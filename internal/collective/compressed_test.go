package collective

import (
	"testing"

	"numabfs/internal/machine"
	"numabfs/internal/mpi"
	"numabfs/internal/omp"
	"numabfs/internal/wire"
)

// newTestCodec builds a codec with a plausible single-socket team; the
// compressed collectives only need it for cost charging.
func newTestCodec() *wire.Codec {
	return &wire.Codec{
		Team: omp.Team{Cfg: machine.TableI(), Threads: 8, SocketsUsed: 1, BWShare: 1},
		Loc:  machine.Local,
	}
}

// variedWord gives owner pos a density class by position — empty,
// single-bit sparse, dense random-ish, or clustered runs — so one
// allgather exercises every wire format the selector can pick.
func variedWord(pos, i int) uint64 {
	switch pos % 4 {
	case 0:
		return 0
	case 1:
		if i == 0 {
			return 1 << uint(pos%64)
		}
		return 0
	case 2:
		return uint64(pos)<<32 | uint64(i) | 1
	default:
		if i%8 < 4 {
			return ^uint64(0)
		}
		return 0
	}
}

func fillVaried(buf []uint64, l Layout, pos int) {
	seg := l.seg(buf, pos)
	for i := range seg {
		seg[i] = variedWord(pos, i)
	}
}

func checkVaried(t *testing.T, who string, rank int, buf []uint64, l Layout) {
	t.Helper()
	for pos := range l.Counts {
		seg := l.seg(buf, pos)
		for i := range seg {
			if want := variedWord(pos, i); seg[i] != want {
				t.Fatalf("%s: rank %d segment %d word %d = %#x, want %#x",
					who, rank, pos, i, seg[i], want)
				return
			}
		}
	}
}

// wireStats aggregates the per-rank codec stats of one run.
func wireStats(codecs []*wire.Codec) wire.Stats {
	var st wire.Stats
	for _, c := range codecs {
		if c != nil {
			st.Add(c.Stats())
		}
	}
	return st
}

func TestAllgatherRingCompressed(t *testing.T) {
	for _, geo := range []struct{ nodes, ppn int }{{2, 4}, {1, 1}, {3, 2}} {
		w := testWorld(t, geo.nodes, geo.ppn)
		g := WorldGroup(w)
		l := EvenLayout(257, g.Size())
		codecs := make([]*wire.Codec, g.Size())
		w.Run(func(p *mpi.Proc) {
			buf := make([]uint64, 257)
			fillVaried(buf, l, g.Pos(p.Rank()))
			c := newTestCodec()
			codecs[g.Pos(p.Rank())] = c
			g.AllgatherRingCompressed(p, buf, l, c)
			checkVaried(t, "ring-comp", p.Rank(), buf, l)
		})
		if g.Size() > 1 {
			st := wireStats(codecs)
			var formats int
			for _, n := range st.Segments {
				if n > 0 {
					formats++
				}
			}
			if formats < 2 {
				t.Errorf("%d ranks: varied densities used only %d wire format(s): %v",
					g.Size(), formats, st.Segments)
			}
			if st.WireBytes >= st.RawBytes {
				t.Errorf("%d ranks: wire %d >= raw %d on compressible data",
					g.Size(), st.WireBytes, st.RawBytes)
			}
		}
	}
}

func TestAllgathervInt64Compressed(t *testing.T) {
	w := testWorld(t, 2, 3)
	g := WorldGroup(w)
	n := g.Size()
	w.Run(func(p *mpi.Proc) {
		me := g.Pos(p.Rank())
		mine := make([]int64, me*7) // varied lengths, incl. empty for rank 0
		for i := range mine {
			mine[i] = int64(me*1000 + i*3)
		}
		var out [][]int64
		// Two rounds: the second reuses out, the engine's steady state.
		for round := 0; round < 2; round++ {
			out = g.AllgathervInt64(p, mine, out, newTestCodec())
			for src := 0; src < n; src++ {
				if len(out[src]) != src*7 {
					t.Errorf("round %d rank %d: len(out[%d]) = %d, want %d",
						round, me, src, len(out[src]), src*7)
					continue
				}
				for k, v := range out[src] {
					if v != int64(src*1000+k*3) {
						t.Errorf("round %d rank %d: out[%d][%d] = %d", round, me, src, k, v)
						break
					}
				}
			}
		}
	})
}

// expectedWire computes the analytic wire volume of a compressed ring
// over a group of n members under layout l: each owner's segment
// encodes to the Choose-predicted size and is forwarded n-1 times.
func expectedWire(l Layout, owners []int, hops int) int64 {
	var total int64
	for _, pos := range owners {
		seg := make([]uint64, l.Counts[pos])
		for i := range seg {
			seg[i] = variedWord(pos, i)
		}
		_, size := wire.Choose(wire.Analyze(seg))
		total += int64(size) * int64(hops)
	}
	return total
}

func TestEq1RingVolumeCompressed(t *testing.T) {
	// Under compression the wire bytes shrink, but the raw (logical)
	// volume the allgather moves still satisfies Eq. (1): m*(np-1).
	w := testWorld(t, 2, 4)
	g := WorldGroup(w)
	const words = 800
	l := EvenLayout(words, g.Size())
	w.Run(func(p *mpi.Proc) {
		buf := make([]uint64, words)
		fillVaried(buf, l, g.Pos(p.Rank()))
		g.AllgatherRingCompressed(p, buf, l, newTestCodec())
	})
	vol := w.Net().Volume()
	m := int64(words * 8)
	wantRaw := m * int64(g.Size()-1)
	if got := vol.RawIntraBytes + vol.RawInterBytes; got != wantRaw {
		t.Fatalf("compressed ring raw volume = %d, want m*(np-1) = %d", got, wantRaw)
	}
	owners := make([]int, g.Size())
	for i := range owners {
		owners[i] = i
	}
	wantWire := expectedWire(l, owners, g.Size()-1)
	if got := vol.IntraBytes + vol.InterBytes; got != wantWire {
		t.Fatalf("compressed ring wire volume = %d, analytic codec size = %d", got, wantWire)
	}
	if wantWire >= wantRaw {
		t.Fatalf("wire %d did not shrink below raw %d on varied-density data", wantWire, wantRaw)
	}
}

func TestEq2ParallelVolumeCompressed(t *testing.T) {
	// Eq. (2) on the raw ledger: the parallelized allgather still moves
	// m*(np/ppn - 1) logical bytes inter-node and nothing intra-node;
	// the wire ledger carries the codec's encoded sizes.
	const nodes, ppn, words = 4, 4, 960
	w := testWorld(t, nodes, ppn)
	nc := NewNodeComm(w)
	l := EvenLayout(words, w.NumProcs())
	w.Run(func(p *mpi.Proc) {
		shared := p.SharedWords("inq", words)
		src := make([]uint64, words)
		fillVaried(src, l, p.Rank())
		nc.Allgather(p, SchemeParallel, shared, src, l, Exchange{Codec: newTestCodec()})
	})
	vol := w.Net().Volume()
	m := int64(words * 8)
	wantRaw := m * int64(nodes-1)
	if vol.RawInterBytes != wantRaw {
		t.Fatalf("compressed parallel raw inter volume = %d, want m*(np/ppn-1) = %d",
			vol.RawInterBytes, wantRaw)
	}
	if vol.RawIntraBytes != 0 || vol.IntraBytes != 0 {
		t.Fatalf("compressed parallel moved intra-node MPI bytes (raw %d, wire %d), want 0",
			vol.RawIntraBytes, vol.IntraBytes)
	}
	owners := make([]int, w.NumProcs())
	for i := range owners {
		owners[i] = i
	}
	wantWire := expectedWire(l, owners, nodes-1)
	if vol.InterBytes != wantWire {
		t.Fatalf("compressed parallel wire volume = %d, analytic codec size = %d",
			vol.InterBytes, wantWire)
	}
	if vol.InterBytes >= wantRaw {
		t.Fatalf("wire %d did not shrink below raw %d", vol.InterBytes, wantRaw)
	}
}
