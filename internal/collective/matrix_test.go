package collective

import (
	"fmt"
	"testing"

	"numabfs/internal/mpi"
	"numabfs/internal/wire"
)

// agGeo is a world shape a test runs on, every rank a member, and the
// words of the gathered buffer.
type agGeo struct {
	name       string
	nodes, ppn int
	words      int64
}

var agGeos = []agGeo{
	{"4x8", 4, 8, 1301},
	// One node: leader group of one, no inter-node step.
	{"single-node", 1, 4, 131},
}

// agEnv is one fresh world with its groups, a layout of varied-density
// segments (fillVaried) and per-rank codecs and overlap ledgers.
type agEnv struct {
	w      *mpi.World
	g      *Group
	nc     *NodeComm
	l      Layout
	words  int64
	codecs []*wire.Codec // by rank
	ovs    []Overlap     // by rank
}

func newAgEnv(t testing.TB, geo agGeo) *agEnv {
	t.Helper()
	w := testWorld(t, geo.nodes, geo.ppn)
	e := &agEnv{
		w: w, g: WorldGroup(w), nc: NewNodeComm(w),
		l: EvenLayout(geo.words, w.NumProcs()), words: geo.words,
		codecs: make([]*wire.Codec, w.NumProcs()), ovs: make([]Overlap, w.NumProcs()),
	}
	for r := range e.codecs {
		e.codecs[r] = newTestCodec()
	}
	return e
}

// private returns a fresh private buffer holding p's own segment.
func (e *agEnv) private(p *mpi.Proc) []uint64 {
	buf := make([]uint64, e.words)
	fillVaried(buf, e.l, e.g.Pos(p.Rank()))
	return buf
}

// sharedFilled returns the named node-shared region after every rank of
// the node wrote its own segment into it.
func (e *agEnv) sharedFilled(p *mpi.Proc, name string) []uint64 {
	s := p.SharedWords(name, e.words)
	fillVaried(s, e.l, e.g.Pos(p.Rank()))
	p.NodeBarrier()
	return s
}

// buffers places p's contribution the way scheme s expects it: private
// destination for the library and leader schemes, node-shared otherwise;
// staged, the source is a private buffer — node-shared under share-all.
func (e *agEnv) buffers(p *mpi.Proc, s Scheme, staged bool) (dst, src []uint64) {
	shared := s >= SchemeSharedIn
	switch {
	case !staged && s == SchemeParallel:
		return e.sharedFilled(p, "inq"), nil
	case !staged && shared:
		// The shared schemes wait for the node's writers themselves.
		dst = p.SharedWords("inq", e.words)
		fillVaried(dst, e.l, e.g.Pos(p.Rank()))
		return dst, nil
	case !staged:
		return e.private(p), nil
	case s == SchemeSharedAll:
		src = e.sharedFilled(p, "outq")
	default:
		src = e.private(p)
	}
	if shared {
		return p.SharedWords("inq", e.words), src
	}
	return make([]uint64, e.words), src
}

// exchange builds rank p's send path: codec or raw, blocking (q == 0) or
// pipelined in q chunks with hook as the per-chunk callback.
func (e *agEnv) exchange(p *mpi.Proc, codec bool, q int, hook func(w0, w1 int64) float64) Exchange {
	var x Exchange
	if codec {
		x.Codec = e.codecs[p.Rank()]
	}
	if q > 0 {
		x.Chunks, x.OnChunk, x.Overlap = q, hook, &e.ovs[p.Rank()]
	}
	return x
}

// ringWire is the analytic wire volume of ring allgathers: every segment
// of every ring layout, cut into the chunks the schedule uses, encodes
// to its Choose-predicted size (or travels raw) and is forwarded hops
// times.
func ringWire(full []uint64, rings []Layout, hops int, codec bool, q int) int64 {
	var total int64
	for _, l := range rings {
		Q := 1
		if q > 0 {
			Q = segChunkCount(l, q)
		}
		for i := range l.Counts {
			for k := 0; k < Q; k++ {
				w0, w1 := chunkSpan(l, i, k, Q)
				size := (w1 - w0) * 8
				if codec {
					_, sz := wire.Choose(wire.Analyze(full[w0:w1]))
					size = int64(sz)
				}
				total += size * int64(hops)
			}
		}
	}
	return total
}

// TestNodeAllgatherMatrix drives the one node-aware allgather through
// scheme x {staged, in place} x {raw, codec} x {blocking, pipelined
// Q=1,2,7} x {4x8 world, single node}
// and checks, per cell, the gathered buffer on every member, the
// logical volumes of Eq. (1)/(2) on the raw ledger, the codec's analytic
// sizes on the wire ledger, and the step-time shape of the scheme.
func TestNodeAllgatherMatrix(t *testing.T) {
	schemes := []struct {
		name string
		s    Scheme
	}{
		{"library", SchemeLibrary}, {"leader", SchemeLeader}, {"shared-in", SchemeSharedIn},
		{"share-all", SchemeSharedAll}, {"parallel", SchemeParallel},
	}
	for _, geo := range agGeos {
		for _, sc := range schemes {
			for _, staged := range []bool{true, false} {
				for _, codec := range []bool{false, true} {
					for _, q := range []int{0, 1, 2, 7} {
						name := fmt.Sprintf("%s/%s/staged=%t/codec=%t/q=%d", geo.name, sc.name, staged, codec, q)
						t.Run(name, func(t *testing.T) {
							checkAllgatherCell(t, geo, sc.s, staged, codec, q)
						})
					}
				}
			}
		}
	}
}

func checkAllgatherCell(t *testing.T, geo agGeo, s Scheme, staged, codec bool, q int) {
	e := newAgEnv(t, geo)
	np := e.g.Size()
	populated := e.nc.Leaders.Size()
	sts := make([]StepTimes, e.w.NumProcs())
	chunkWords := make([]int64, e.w.NumProcs())
	e.w.Run(func(p *mpi.Proc) {
		dst, src := e.buffers(p, s, staged)
		hook := func(w0, w1 int64) float64 {
			chunkWords[p.Rank()] += w1 - w0
			return float64(w1-w0) * 0.37
		}
		sts[p.Rank()] = e.nc.Allgather(p, s, dst, src, e.l, e.exchange(p, codec, q, hook))
		checkVaried(t, "matrix", p.Rank(), dst, e.l)
	})

	full := make([]uint64, e.words)
	for pos := range e.l.Counts {
		fillVaried(full, e.l, pos)
	}
	m := e.words * 8
	vol := e.w.Net().Volume()

	// Which rings ran, and over how many hops.
	var rings []Layout
	hops := populated - 1
	switch s {
	case SchemeLibrary:
		rings, hops = []Layout{e.l}, np-1
	case SchemeParallel:
		for j := range e.nc.Subs {
			rings = append(rings, e.nc.views(e.l).subs[j])
		}
	default:
		rings = []Layout{e.nc.views(e.l).node}
	}

	// Raw ledger: Eq. (1) for the flat scheme, Eq. (2) between nodes for
	// the node-aware ones, and only the steps sharing has not removed
	// inside a node.
	switch s {
	case SchemeLibrary:
		if got, want := vol.RawIntraBytes+vol.RawInterBytes, m*int64(np-1); got != want {
			t.Errorf("raw volume %d, want m*(np-1) = %d", got, want)
		}
	default:
		if want := m * int64(populated-1); vol.RawInterBytes != want {
			t.Errorf("raw inter-node volume %d, want m*(nodes-1) = %d", vol.RawInterBytes, want)
		}
		var wantIntra int64
		if s == SchemeSharedIn && staged {
			for pos, r := range e.g.Ranks() {
				if !e.nc.IsLeader(e.w.Proc(r)) {
					wantIntra += e.l.Counts[pos] * 8
				}
			}
		}
		switch {
		case s == SchemeLeader:
			if (vol.RawIntraBytes > 0) != (e.nc.PPN > 1) {
				t.Errorf("leader scheme moved %d intra-node bytes at ppn %d", vol.RawIntraBytes, e.nc.PPN)
			}
		case vol.RawIntraBytes != wantIntra:
			t.Errorf("raw intra-node volume %d, want %d", vol.RawIntraBytes, wantIntra)
		}
	}

	// Wire ledger: the rings carry encoded (or raw) chunks; the intra-node
	// gather and broadcast steps stay raw.
	if s == SchemeLibrary && !codec && q == 0 {
		// Thakur-Gropp may have picked recursive doubling: raw == wire.
		if vol.IntraBytes != vol.RawIntraBytes || vol.InterBytes != vol.RawInterBytes {
			t.Errorf("raw library allgather: wire %d/%d != raw %d/%d",
				vol.IntraBytes, vol.InterBytes, vol.RawIntraBytes, vol.RawInterBytes)
		}
	} else {
		want := ringWire(full, rings, hops, codec, q)
		got := vol.InterBytes
		if s == SchemeLibrary {
			got += vol.IntraBytes
		} else if vol.IntraBytes != vol.RawIntraBytes {
			t.Errorf("intra-node steps: wire %d != raw %d", vol.IntraBytes, vol.RawIntraBytes)
		}
		if got != want {
			t.Errorf("ring wire volume %d, analytic %d", got, want)
		}
	}

	for _, r := range e.g.Ranks() {
		p, st := e.w.Proc(r), sts[r]
		if s != SchemeLeader && st.BcastNs != 0 {
			t.Errorf("rank %d: BcastNs = %g, want 0 (no broadcast step)", r, st.BcastNs)
		}
		if s == SchemeLeader && e.nc.PPN > 1 && st.BcastNs <= 0 {
			t.Errorf("rank %d: BcastNs = %g, want > 0", r, st.BcastNs)
		}
		if s == SchemeLeader && !e.nc.IsLeader(p) && st.InterNs != 0 {
			t.Errorf("child rank %d charged inter time %g", r, st.InterNs)
		}
		if q > 0 {
			// The hook saw every word of the buffer the rank's rings moved.
			var want int64
			switch {
			case s == SchemeLibrary:
				want = e.words
			case s != SchemeParallel:
				if e.nc.IsLeader(p) {
					want = e.words
				}
			default:
				want = e.nc.views(e.l).subs[e.g.Pos(r)%e.nc.PPN].TotalWords()
			}
			if chunkWords[r] != want {
				t.Errorf("rank %d: per-chunk hook covered %d words, want %d", r, chunkWords[r], want)
			}
			if ov := e.ovs[r]; want > 0 && (ov.Segments < 1 || ov.Segments > q) {
				t.Errorf("rank %d: overlap ledger used %d chunks, want 1..%d", r, ov.Segments, q)
			}
		}
	}
}
