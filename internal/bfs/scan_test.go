package bfs

// Tests of the bottom-up scan kernel (bottomup.go, bitmap.BottomUpScan):
// the per-vertex loop it replaced is kept here verbatim as the
// reference, and the kernel must reproduce its parents, out_queue words,
// counters and every per-chunk PhaseLoad — hence every virtual clock —
// bit for bit, on inputs R-MAT does not produce, at chunk sizes that are
// not multiples of the kernel's 64-vertex word and at granularities that
// are not powers of two.

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"reflect"
	"slices"
	"testing"

	"numabfs/internal/graph"
	"numabfs/internal/machine"
	"numabfs/internal/omp"
	"numabfs/internal/rmat"
	"numabfs/internal/testgraphs"
	"numabfs/internal/trace"
)

// referenceBottomUpScan is the computation phase of bottomUpLevel as it
// stood before the kernel: one branchy pass over owned vertices, a
// summary probe with a divide and an in_queue probe per edge. chunks
// receives a copy of every chunk's PhaseLoad.
func referenceBottomUpScan(rs *rankState, chunks *[]machine.PhaseLoad) (res omp.Result, nfLocal, mfLocal int64) {
	r := rs.r
	inqLoc, sumLoc := r.InqLoc, r.SumLoc
	res = rs.team.For(rs.csr.NumLocal(), r.Opts.Chunk, func(lo, hi int64, load *machine.PhaseLoad) {
		var edges, sumChecks, inqChecks, found int64
		for i := lo; i < hi; i++ {
			if rs.parent[i] >= 0 {
				continue
			}
			v := rs.csr.Lo + i
			for _, w := range rs.csr.Neighbors(v) {
				u := int64(w)
				edges++
				sumChecks++
				if rs.inSum.CoveredZero(u) {
					continue // the summary proved in_queue[u] == 0
				}
				inqChecks++
				if rs.inQ.Get(u) {
					rs.parent[i] = u
					rs.outQ.Set(v)
					found++
					nfLocal++
					d := rs.csr.Degree(v)
					mfLocal += d
					rs.Visited++
					rs.VisitedEdges += d
					break
				}
			}
		}
		load.Random = append(load.Random,
			machine.Access{Count: sumChecks, StructBytes: r.sumBytes, Loc: sumLoc},
			machine.Access{Count: inqChecks, StructBytes: r.inqBytes, Loc: inqLoc},
			machine.Access{Count: found, StructBytes: rs.parentBytes(), Loc: r.pl.PrivateLoc},
		)
		// Parent scan + adjacency stream.
		load.SeqBytes = (hi-lo)*8 + edges*8
		load.SeqLoc = r.pl.GraphLoc
		load.CPUOps = edges*2 + (hi - lo)
		*chunks = append(*chunks, cloneLoad(*load))
	})
	return res, nfLocal, mfLocal
}

func cloneLoad(l machine.PhaseLoad) machine.PhaseLoad {
	l.Random = slices.Clone(l.Random)
	return l
}

// scanRunner sets up a 4-rank runner (2 nodes x 2 sockets, 1024
// vertices per rank) over a prebuilt input.
func scanRunner(t testing.TB, in testgraphs.Input, opts Options) *Runner {
	t.Helper()
	const scale = 12
	r, err := NewRunner(testConfig(scale, 2, 2), machine.PPN8Bind, rmat.Graph500(scale), opts)
	if err != nil {
		t.Fatal(err)
	}
	pairs := in.Route(len(r.states), func(u, _ int64) int { return r.Part.Owner(u) })
	csrs := make([]*graph.CSR, len(pairs))
	for pos := range csrs {
		lo, hi := r.Part.Range(pos)
		csrs[pos] = graph.BuildCSR(lo, hi, pairs[pos], in.Dedup)
	}
	if err := r.UsePrebuilt(csrs, 0); err != nil {
		t.Fatal(err)
	}
	r.Setup()
	return r
}

// compareScanLevels drives a pure bottom-up traversal from root level by
// level over r's rank states without the message layer: at every level
// each rank scans once with the reference loop and once with the kernel
// from the same state, and everything either leaves behind must agree.
// Returns the number of levels run.
func compareScanLevels(t *testing.T, r *Runner, root int64) int {
	t.Helper()
	n := r.Params.NumVertices()
	frontier := make([]uint64, (n+63)/64)
	frontier[root>>6] |= 1 << uint(root&63)
	for _, rs := range r.states {
		rs.reset()
		if lo, hi := rs.csr.Lo, rs.csr.Hi; lo <= root && root < hi {
			rs.parent[root-lo] = root
		}
	}
	levels := 0
	for ; slices.ContainsFunc(frontier, func(w uint64) bool { return w != 0 }); levels++ {
		next := make([]uint64, len(frontier))
		for _, rs := range r.states {
			copy(rs.inQ.Words(), frontier)
			rs.inSum.Rebuild(rs.inQ)
		}
		for pos, rs := range r.states {
			where := fmt.Sprintf("level %d rank %d", levels, pos)
			parent0 := slices.Clone(rs.parent)
			count0, edges0 := rs.Visited, rs.VisitedEdges
			clear(rs.outQ.Words())

			var wantLoads []machine.PhaseLoad
			wantRes, wantNF, wantMF := referenceBottomUpScan(rs, &wantLoads)
			wantParent, wantOut := slices.Clone(rs.parent), slices.Clone(rs.outQ.Words())
			if rs.Visited-count0 != wantNF || rs.VisitedEdges-edges0 != wantMF {
				t.Fatalf("%s: reference counters disagree with its own nf/mf", where)
			}

			copy(rs.parent, parent0)
			rs.Visited, rs.VisitedEdges = count0, edges0
			clear(rs.outQ.Words())
			var gotLoads []machine.PhaseLoad
			gotRes := rs.team.For(rs.csr.NumLocal(), r.Opts.Chunk, func(lo, hi int64, load *machine.PhaseLoad) {
				rs.bottomUpScan(lo, hi, load)
				gotLoads = append(gotLoads, cloneLoad(*load))
			})

			if !slices.Equal(rs.parent, wantParent) {
				t.Fatalf("%s: parent arrays differ", where)
			}
			if !slices.Equal(rs.outQ.Words(), wantOut) {
				t.Fatalf("%s: out_queue words differ", where)
			}
			if nf, mf := rs.Visited-count0, rs.VisitedEdges-edges0; nf != wantNF || mf != wantMF {
				t.Fatalf("%s: nf/mf %d/%d, want %d/%d", where, nf, mf, wantNF, wantMF)
			}
			if !reflect.DeepEqual(gotLoads, wantLoads) {
				t.Fatalf("%s: per-chunk PhaseLoads differ:\n got %+v\nwant %+v", where, gotLoads, wantLoads)
			}
			if math.Float64bits(gotRes.Ns) != math.Float64bits(wantRes.Ns) ||
				math.Float64bits(gotRes.Imbalance) != math.Float64bits(wantRes.Imbalance) {
				t.Fatalf("%s: region cost %v (imbalance %v), want %v (%v)", where,
					gotRes.Ns, gotRes.Imbalance, wantRes.Ns, wantRes.Imbalance)
			}
			for w, x := range wantOut {
				next[w] |= x
			}
		}
		frontier = next
	}
	return levels
}

// TestScanMatchesReference: kernel == reference on every adversarial
// input at chunk sizes around the 64-vertex word and at power-of-two and
// other granularities, with private and node-shared bitmaps.
func TestScanMatchesReference(t *testing.T) {
	for _, in := range testgraphs.Adversarial(1<<12, 4) {
		for _, chunk := range []int64{64, 100, 1000, 1024} {
			for _, g := range []int64{64, 192, 256} {
				opts := DefaultOptions()
				opts.Chunk, opts.Granularity, opts.Dedup = chunk, g, in.Dedup
				if g == 256 {
					opts.Opt = OptParAllgather // shared in_queue/out_queue/summary
				}
				t.Run(fmt.Sprintf("%s/chunk%d/g%d", in.Name, chunk, g), func(t *testing.T) {
					r := scanRunner(t, in, opts)
					if levels := compareScanLevels(t, r, in.Root); levels < 2 {
						t.Fatalf("traversal from %d ended after %d levels", in.Root, levels)
					}
				})
			}
		}
	}
}

// treeHash is FNV-1a-64 over the little-endian parent arrays in rank
// order followed by the bits of the iteration's virtual time.
func treeHash(parents [][]int64, timeNs float64) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, pa := range parents {
		for _, x := range pa {
			binary.LittleEndian.PutUint64(buf[:], uint64(x))
			h.Write(buf[:])
		}
	}
	binary.LittleEndian.PutUint64(buf[:], math.Float64bits(timeNs))
	h.Write(buf[:])
	return h.Sum64()
}

// TestScanGolden pins parent trees and virtual times of two scale-14
// roots at every optimization level (hybrid, g=256), plus pure bottom-up
// at an unaligned chunk and a non-power-of-two granularity, to the
// values the per-vertex loop produced at the commit before the kernel.
func TestScanGolden(t *testing.T) {
	const scale = 14
	params := rmat.Graph500(scale)
	run := func(name string, opts Options) {
		r := setUp(t, testConfig(scale, 2, 4), machine.PPN8Bind, params, opts)
		for k, root := range params.Roots(2, r.HasEdgeGlobal) {
			res := r.RunRoot(root)
			if res.Breakdown.BULevels == 0 {
				t.Errorf("%s root %d: no bottom-up level ran", name, k)
			}
			if got, want := treeHash(r.ParentArrays(), res.TimeNs), scanGolden[name][k]; got != want {
				t.Errorf("%s root %d: tree+time hash %#x, want %#x", name, k, got, want)
			}
		}
	}
	for opt := OptOriginal; opt <= OptOverlapAllgather; opt++ {
		opts := optOptions(opt)
		opts.Granularity = 256
		run(opt.String(), opts)
	}
	// (Below the overlap level a granularity that does not divide the
	// rank width panics in the summary-share rebuild, before and after
	// this kernel.)
	opts := optOptions(OptOverlapAllgather)
	opts.Mode, opts.Chunk, opts.Granularity = ModeBottomUp, 100, 192
	run("bottom-up chunk100 g192", opts)
}

var scanGolden = map[string][2]uint64{
	"Original":                {0x3faeb7f99fcfa3d8, 0x4b4eea31f3e4d7af},
	"Share in_queue":          {0x637bdb10426bee97, 0x166aa359d768d854},
	"Share all":               {0xd756d16a285a5131, 0x163e2a05927f0331},
	"Par allgather":           {0x16112cf682ec6ef6, 0x65bddd0a40b5facf},
	"Compressed allgather":    {0xb606452fbf085645, 0xd3e11d0fa10ae342},
	"Overlap allgather":       {0xe079ae7ad82a6f57, 0x8da0749132228201},
	"bottom-up chunk100 g192": {0xd192471587b2d10d, 0x105861f3ad82c729},
}

// TestRootAllocsScanBounded: a bottom-up-heavy root at OptParAllgather
// allocates per level, not per omp chunk — Team.For hands every chunk
// the same PhaseLoad over one reused Random backing array. 383 objects
// measured, the same as with one chunk per rank; 3063 while every chunk
// allocated its PhaseLoad and its Random.
func TestRootAllocsScanBounded(t *testing.T) {
	opts := optOptions(OptParAllgather)
	opts.Mode = ModeBottomUp
	opts.Chunk = 16 // 32 chunks per rank and level at scale 12 on 8 ranks
	got := rootAllocs(t, opts, nil)
	const bound = 460
	if got > bound {
		t.Errorf("bottom-up root allocates %g objects, want <= %d — a per-chunk allocation is back", got, bound)
	}
}

// BenchmarkBottomUpScan times the scan kernel alone on the state entering
// the first bottom-up level of a fixed scale-18 root, all ranks of a
// 2-node world in turn, and reports ns per candidate row (unvisited
// vertex with at least one neighbour) — for the kernel and, as the fixed
// baseline, for the per-vertex loop it replaced.
func BenchmarkBottomUpScan(b *testing.B) {
	const scale = 18
	params := rmat.Graph500(scale)
	opts := optOptions(OptParAllgather)
	opts.Granularity = 256
	r, err := NewRunner(testConfig(scale, 2, 2), machine.PPN8Bind, params, opts)
	if err != nil {
		b.Fatal(err)
	}
	r.Setup()
	root := params.Roots(1, r.HasEdgeGlobal)[0]
	// The frontier entering the first bottom-up level is the last
	// top-down level: replay the run's levels on the serial reference.
	res := r.RunRoot(root)
	firstBU := slices.IndexFunc(res.LevelStats, func(l trace.LevelStat) bool { return l.BottomUp })
	if firstBU < 0 {
		b.Fatal("root ran no bottom-up level")
	}
	level, parent := graph.ReferenceBFS(graph.BuildGlobal(params, opts.Dedup), root)
	var candidates int64
	for _, rs := range r.states {
		clear(rs.inQ.Words())
		for v, l := range level {
			if l == int64(firstBU) {
				rs.inQ.Set(int64(v))
			}
		}
	}
	saved := make([][]int64, len(r.states))
	for pos, rs := range r.states {
		rs.inSum.Rebuild(rs.inQ)
		for i := range rs.parent {
			v := rs.csr.Lo + int64(i)
			rs.parent[i] = -1
			if level[v] >= 0 && level[v] <= int64(firstBU) {
				rs.parent[i] = parent[v]
			} else if rs.csr.HasEdge(v) {
				candidates++
			}
		}
		saved[pos] = slices.Clone(rs.parent)
	}
	for _, bc := range []struct {
		name string
		scan func(rs *rankState)
	}{
		{"kernel", func(rs *rankState) { rs.team.For(rs.csr.NumLocal(), opts.Chunk, rs.bottomUpScan) }},
		{"reference", func(rs *rankState) { referenceBottomUpScan(rs, new([]machine.PhaseLoad)) }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			for it := 0; it < b.N; it++ {
				for pos, rs := range r.states {
					b.StopTimer()
					copy(rs.parent, saved[pos])
					b.StartTimer()
					bc.scan(rs)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(candidates), "ns/row")
		})
	}
}
