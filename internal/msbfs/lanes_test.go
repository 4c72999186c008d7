package msbfs

// Tests of the lane records (engine.go, run.go, bottomup.go): a vertex's
// 64 parent records sit side by side, count only under its visited bits
// and are never cleared between batches, and the frontier counters are
// bumped once per settled (vertex, lane) instead of once per hit. The
// per-hit loops they replaced, over one -1-filled parent array per lane,
// are kept here verbatim as the reference, and the sweeps must reproduce
// their visited words, out-plane, counters, per-chunk PhaseLoads and
// every lane's parents bit for bit.

import (
	"fmt"
	"math"
	"math/bits"
	"reflect"
	"slices"
	"testing"

	"numabfs/internal/bfs"
	"numabfs/internal/bitmap"
	"numabfs/internal/graph"
	"numabfs/internal/machine"
	"numabfs/internal/omp"
	"numabfs/internal/rmat"
	"numabfs/internal/testgraphs"
)

// laneMajor is one rank's lane bookkeeping as it stood before the lane
// records: a parent array per lane (-1 unvisited), the visited lane
// words, visited totals bumped per hit, and an out-plane of its own.
type laneMajor struct {
	parent                     [][]int64
	vis                        []uint64
	out                        *bitmap.LanePlane
	visitedCount, visitedEdges [64]int64
}

func newLaneMajor(ls *laneState) *laneMajor {
	owned := int(ls.csr.NumLocal())
	m := &laneMajor{
		parent: make([][]int64, bitmap.LaneBits),
		vis:    make([]uint64, owned),
		out:    bitmap.NewLanePlane(ls.r.Params.NumVertices()),
	}
	for l := range m.parent {
		m.parent[l] = make([]int64, owned)
		for i := range m.parent[l] {
			m.parent[l][i] = -1
		}
	}
	return m
}

// referenceClaim is claim before the lane records.
func referenceClaim(ls *laneState, m *laneMajor, v, u int64, w uint64, nfL, mfL *[64]int64) {
	i := v - ls.csr.Lo
	nw := w &^ m.vis[i]
	if nw == 0 {
		return
	}
	m.vis[i] |= nw
	m.out.Or(v, nw)
	d := ls.csr.Degree(v)
	for mm := nw; mm != 0; mm &= mm - 1 {
		l := bits.TrailingZeros64(mm)
		m.parent[l][i] = u
		nfL[l]++
		mfL[l] += d
		m.visitedCount[l]++
		m.visitedEdges[l] += d
	}
}

// referenceBottomUpSweep is bottomUpSweep's computation phase before the
// lane records. chunks receives a copy of every chunk's PhaseLoad.
func referenceBottomUpSweep(ls *laneState, m *laneMajor, buMask uint64, nfL, mfL *[64]int64, chunks *[]machine.PhaseLoad) omp.Result {
	r := ls.r
	return ls.team.For(ls.csr.NumLocal(), r.Opts.Chunk, func(lo, hi int64, load *machine.PhaseLoad) {
		var edges, sumChecks, planeChecks, found int64
		for i := lo; i < hi; i++ {
			pend := buMask &^ m.vis[i]
			if pend == 0 {
				continue
			}
			v := ls.csr.Lo + i
			var d int64 // v's degree, fetched lazily on the first hit
			for _, w := range ls.csr.Neighbors(v) {
				u := int64(w)
				edges++
				sumChecks++
				if ls.inSum.CoveredZero(u, pend) {
					continue // the summary proved every pending lane empty here
				}
				planeChecks++
				hit := ls.inPlane.Word(u) & pend
				if hit == 0 {
					continue
				}
				m.vis[i] |= hit
				m.out.Or(v, hit)
				if d == 0 {
					d = ls.csr.Degree(v)
				}
				for mm := hit; mm != 0; mm &= mm - 1 {
					l := bits.TrailingZeros64(mm)
					m.parent[l][i] = u
					nfL[l]++
					mfL[l] += d
					m.visitedCount[l]++
					m.visitedEdges[l] += d
				}
				found++
				pend &^= hit
				if pend == 0 {
					break
				}
			}
		}
		load.Random = append(load.Random,
			machine.Access{Count: sumChecks, StructBytes: r.sumBytes, Loc: r.SumLoc},
			machine.Access{Count: planeChecks, StructBytes: r.planeBytes, Loc: r.InqLoc},
			machine.Access{Count: found, StructBytes: ls.visBytes(), Loc: r.pl.PrivateLoc},
		)
		// Visited-word scan + adjacency stream.
		load.SeqBytes = (hi-lo)*8 + edges*8
		load.SeqLoc = r.pl.GraphLoc
		load.CPUOps = edges*2 + (hi - lo)
		*chunks = append(*chunks, cloneLoad(*load))
	})
}

func cloneLoad(l machine.PhaseLoad) machine.PhaseLoad {
	l.Random = slices.Clone(l.Random)
	return l
}

// laneRunner sets up the 8-rank test world over a prebuilt input, or
// over R-MAT scale 12 when in is nil, and returns it with the global
// CSR of the same graph.
func laneRunner(t *testing.T, in *testgraphs.Input, opts bfs.Options) (*Runner, *graph.CSR) {
	t.Helper()
	const scale = 12
	params := rmat.Graph500(scale)
	if in == nil {
		return setUp(t, testConfig(scale, 2, 4), machine.PPN8Bind, params, opts), graph.BuildGlobal(params, opts.Dedup)
	}
	r, err := NewRunner(testConfig(scale, 2, 4), machine.PPN8Bind, params, opts)
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
	n := params.NumVertices()
	return r, graph.BuildCSR(0, n, in.Route(1, func(_, _ int64) int { return 0 })[0], in.Dedup)
}

// compareLaneLevels drives a batch from roots level by level over r's
// rank states without the message layer — odd lanes bottom-up on even
// levels and the other way round, so levels are mixed and every lane
// goes both ways — and at every level runs each rank's top-down claims
// (in topDownSweep's order: the owner's own scan, then each sender's
// triples in position order) and bottom-up sweep twice from the same
// state: the reference against laneMajor, the engine against its lane
// records, which start out full of garbage. Returns the levels run.
func compareLaneLevels(t *testing.T, r *Runner, roots []int64) int {
	t.Helper()
	n := r.Params.NumVertices()
	front := make([]uint64, n)
	refs := make([]*laneMajor, len(r.states))
	for pos, ls := range r.states {
		ls.reset(len(roots))
		for i := range ls.parent {
			ls.parent[i] = -7
		}
		refs[pos] = newLaneMajor(ls)
	}
	for l, root := range roots {
		bit := uint64(1) << uint(l)
		front[root] |= bit
		ls, m := r.states[r.Part.Owner(root)], refs[r.Part.Owner(root)]
		i := root - ls.csr.Lo
		ls.vis[i] |= bit
		ls.parent[i<<6|int64(l)] = root
		m.vis[i] |= bit
		m.parent[l][i] = root
	}
	all := r.states[0].all
	levels := 0
	for ; slices.ContainsFunc(front, func(w uint64) bool { return w != 0 }); levels++ {
		bu := uint64(0xAAAAAAAAAAAAAAAA)
		if levels%2 == 1 {
			bu = ^bu
		}
		buMask, tdMask := all&bu, all&^bu
		claims := make([][][3]int64, len(r.states)) // per owner: (child, parent, lanes)
		for me := range r.states {
			order := []int{me}
			for src := range r.states {
				if src != me {
					order = append(order, src)
				}
			}
			for _, src := range order {
				csr := r.states[src].csr
				for v := csr.Lo; v < csr.Hi; v++ {
					if w := front[v] & tdMask; w != 0 {
						for _, id := range csr.Neighbors(v) {
							if u := int64(id); r.Part.Owner(u) == me {
								claims[me] = append(claims[me], [3]int64{u, v, int64(w)})
							}
						}
					}
				}
			}
		}
		for _, ls := range r.states {
			copy(ls.inPlane.Words(), front)
			ls.inSum.Rebuild(ls.inPlane)
		}
		next := make([]uint64, n)
		for pos, ls := range r.states {
			where := fmt.Sprintf("level %d rank %d", levels, pos)
			m := refs[pos]
			lo, hi := ls.csr.Lo, ls.csr.Hi
			clear(ls.outPlane.Words()[lo:hi])
			clear(m.out.Words()[lo:hi])
			count0, edges0 := m.visitedCount, m.visitedEdges
			var nfL, mfL, wantNF, wantMF [64]int64
			for _, c := range claims[pos] {
				referenceClaim(ls, m, c[0], c[1], uint64(c[2]), &wantNF, &wantMF)
				ls.claim(c[0], c[1], uint64(c[2]), &nfL, &mfL)
			}
			var wantLoads, gotLoads []machine.PhaseLoad
			var wantRes, gotRes omp.Result
			if buMask != 0 {
				wantRes = referenceBottomUpSweep(ls, m, buMask, &wantNF, &wantMF, &wantLoads)
				gotRes = ls.team.For(ls.csr.NumLocal(), r.Opts.Chunk, func(lo, hi int64, load *machine.PhaseLoad) {
					ls.bottomUpChunk(lo, hi, buMask, &nfL, &mfL, load)
					gotLoads = append(gotLoads, cloneLoad(*load))
				})
			}
			for l := range wantNF {
				if m.visitedCount[l]-count0[l] != wantNF[l] || m.visitedEdges[l]-edges0[l] != wantMF[l] {
					t.Fatalf("%s lane %d: reference totals disagree with its own nf/mf", where, l)
				}
			}
			if nfL != wantNF || mfL != wantMF {
				t.Fatalf("%s: nf/mf %v/%v, want %v/%v", where, nfL, mfL, wantNF, wantMF)
			}
			if !slices.Equal(ls.vis, m.vis) {
				t.Fatalf("%s: visited lane words differ", where)
			}
			if !slices.Equal(ls.outPlane.Words()[lo:hi], m.out.Words()[lo:hi]) {
				t.Fatalf("%s: owned out-plane segments differ", where)
			}
			if !reflect.DeepEqual(gotLoads, wantLoads) {
				t.Fatalf("%s: per-chunk PhaseLoads differ:\n got %+v\nwant %+v", where, gotLoads, wantLoads)
			}
			if math.Float64bits(gotRes.Ns) != math.Float64bits(wantRes.Ns) {
				t.Fatalf("%s: region cost %v, want %v", where, gotRes.Ns, wantRes.Ns)
			}
			for l := range roots {
				for i, w := range ls.vis {
					got := int64(-1)
					if w>>uint(l)&1 != 0 {
						got = ls.parent[i<<6|l]
					}
					if want := m.parent[l][i]; got != want {
						t.Fatalf("%s lane %d vertex %d: parent %d, want %d", where, l, lo+int64(i), got, want)
					}
				}
			}
			copy(next[lo:hi], ls.outPlane.Words()[lo:hi])
		}
		front = next
	}
	return levels
}

// TestSweepsMatchReference: the lane-record sweeps == the per-hit
// reference on every adversarial input and R-MAT, at chunk sizes around
// and off the 64-vertex word and at batches of 1, 3 and 64 lanes.
func TestSweepsMatchReference(t *testing.T) {
	inputs := []*testgraphs.Input{nil}
	for _, in := range testgraphs.Adversarial(1<<12, 8) {
		inputs = append(inputs, &in)
	}
	for _, in := range inputs {
		name := "rmat12"
		if in != nil {
			name = in.Name
		}
		for _, chunk := range []int64{64, 100, 1024} {
			for _, batch := range []int{1, 3, 64} {
				t.Run(fmt.Sprintf("%s/chunk%d/batch%d", name, chunk, batch), func(t *testing.T) {
					opts := bfs.DefaultOptions()
					opts.Chunk = chunk
					if in != nil {
						opts.Dedup = in.Dedup
					}
					r, global := laneRunner(t, in, opts)
					// Lane 0 at the input's root, the others spread over the
					// id space: rooted and edgeless vertices alike.
					n := r.Params.NumVertices()
					roots := []int64{r.Params.Roots(1, global.HasEdge)[0]}
					if in != nil {
						roots[0] = in.Root
					}
					for k := int64(1); len(roots) < batch; k++ {
						if v := (roots[0] + k*n/64 + k) % n; !slices.Contains(roots, v) {
							roots = append(roots, v)
						}
					}
					if levels := compareLaneLevels(t, r, roots); levels < 2 {
						t.Fatalf("traversal from %v ended after %d levels", roots[:1], levels)
					}
				})
			}
		}
	}
}

// TestLaneParentsMaskStaleRecords: a 64-lane batch leaves lane records
// all over its component; a 3-lane batch after it, rooted in smaller
// components and at an edgeless vertex, must read -1 exactly where its
// own reference BFS does — LaneParents masks by the visited bits — and
// every lane of both batches must equal its batch-of-one tree.
func TestLaneParentsMaskStaleRecords(t *testing.T) {
	inputs := []*testgraphs.Input{nil}
	for _, in := range testgraphs.Adversarial(1<<12, 8) {
		if in.Name == "path" || in.Name == "star" || in.Name == "disconnected" {
			inputs = append(inputs, &in)
		}
	}
	for _, in := range inputs {
		name := "rmat12"
		opts := bfs.DefaultOptions()
		if in != nil {
			name, opts.Dedup = in.Name, in.Dedup
		}
		t.Run(name, func(t *testing.T) {
			r, global := laneRunner(t, in, opts)
			n := r.Params.NumVertices()
			giant := r.Params.Roots(1, global.HasEdge)[0]
			if in != nil {
				giant = in.Root
			}
			inGiant, _ := graph.ReferenceBFS(global, giant)
			var first, second []int64
			for v := int64(0); v < n && len(first) < 64; v++ {
				if inGiant[v] >= 0 {
					first = append(first, v)
				}
			}
			for v := int64(0); v < n && len(second) < 2; v++ {
				if inGiant[v] < 0 && global.HasEdge(v) {
					second = append(second, v)
				}
			}
			for v := int64(0); v < n && len(second) < 3; v++ {
				if !global.HasEdge(v) {
					second = append(second, v)
				}
			}
			if len(first) != 64 || len(second) != 3 {
				t.Fatalf("found %d roots in the giant component and %d outside", len(first), len(second))
			}
			for _, batch := range [][]int64{first, second} {
				r.RunBatch(batch)
				lanes := make([][]int64, len(batch))
				for l, root := range batch {
					lanes[l] = r.LaneParents(l)
					level, _ := graph.ReferenceBFS(global, root)
					for v, p := range lanes[l] {
						if (p < 0) != (level[v] < 0) {
							t.Fatalf("batch of %d lane %d (root %d) vertex %d: parent %d, reference level %d",
								len(batch), l, root, v, p, level[v])
						}
					}
					if got := graph.TreeLevels(lanes[l], root); !slices.Equal(got, level) {
						t.Fatalf("batch of %d lane %d (root %d): tree levels differ from the reference", len(batch), l, root)
					}
				}
				for l, root := range batch {
					r.RunBatch([]int64{root})
					if !slices.Equal(r.LaneParents(0), lanes[l]) {
						t.Fatalf("batch of %d lane %d (root %d): tree differs from its batch-of-one run", len(batch), l, root)
					}
				}
			}
		})
	}
}
