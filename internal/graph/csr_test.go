package graph

import (
	"runtime"
	"slices"
	"testing"

	"numabfs/internal/rmat"
	"numabfs/internal/xrand"
)

// naiveRows is the construction BuildCSRFrom must equal, written the
// slow obvious way: per source a list of neighbours, self-loops skipped,
// sorted, and duplicates squeezed out when dedup is on.
func naiveRows(lo, hi int64, vecs [][]int64, dedup bool) [][]uint32 {
	rows := make([][]uint32, hi-lo)
	for _, vec := range vecs {
		for k := 0; k < len(vec); k += 2 {
			if u, v := vec[k], vec[k+1]; u != v {
				rows[u-lo] = append(rows[u-lo], uint32(v))
			}
		}
	}
	for i := range rows {
		slices.Sort(rows[i])
		if dedup {
			rows[i] = slices.Compact(rows[i])
		}
	}
	return rows
}

// splitPairs cuts a pair list into n vectors at random pair boundaries
// (some of them empty), keeping the order.
func splitPairs(rng *xrand.Xoshiro256, pairs []int64, n int) [][]int64 {
	cuts := make([]int, n+1)
	cuts[n] = len(pairs) / 2
	for i := 1; i < n; i++ {
		cuts[i] = int(rng.Uint64n(uint64(len(pairs)/2 + 1)))
	}
	slices.Sort(cuts)
	vecs := make([][]int64, n)
	for i := range vecs {
		vecs[i] = pairs[2*cuts[i] : 2*cuts[i+1]]
	}
	return vecs
}

// TestBuildCSRFromMatchesNaive: on random pair vectors — self-loops,
// heavy duplication, rows nobody names, empty vectors, one-vertex ranges,
// ranges that do not start at 0 — the shared builder equals the naive
// construction, with dedup on and off, and splitting the same pairs over
// 1, 3 or 17 vectors changes nothing.
func TestBuildCSRFromMatchesNaive(t *testing.T) {
	rng := xrand.NewXoshiro256(15)
	for trial := 0; trial < 300; trial++ {
		width := int64(1 + rng.Uint64n(40))
		if trial%7 == 0 {
			width = 1
		}
		lo := int64(rng.Uint64n(3)) * 64
		hi := lo + width
		// Few distinct neighbours make duplicates heavy; neighbours inside
		// [lo, hi) make self-loops.
		nbrs := int64(1 + rng.Uint64n(uint64(2*width)))
		npairs := int(rng.Uint64n(uint64(6 * width)))
		if trial%11 == 0 {
			npairs = 0
		}
		pairs := make([]int64, 0, 2*npairs)
		for k := 0; k < npairs; k++ {
			// Only the lower half of the range is ever a source, so the
			// upper rows stay empty.
			u := lo + int64(rng.Uint64n(uint64((width+1)/2)))
			pairs = append(pairs, u, lo+int64(rng.Uint64n(uint64(nbrs))))
		}
		for _, dedup := range []bool{true, false} {
			want := naiveRows(lo, hi, [][]int64{pairs}, dedup)
			var first *CSR
			for _, n := range []int{1, 3, 17} {
				c := BuildCSRFrom(lo, hi, splitPairs(rng, pairs, n), dedup)
				if c.Lo != lo || c.Hi != hi || int64(len(c.RowPtr)) != width+1 || c.RowPtr[0] != 0 ||
					c.RowPtr[width] != int64(len(c.Col)) {
					t.Fatalf("trial %d: malformed CSR %+v", trial, c)
				}
				for v := lo; v < hi; v++ {
					if got := c.Neighbors(v); !slices.Equal(got, want[v-lo]) {
						t.Fatalf("trial %d dedup=%v over %d vectors: row %d = %v, want %v", trial, dedup, n, v, got, want[v-lo])
					}
				}
				if first == nil {
					first = c
				} else if !slices.Equal(c.RowPtr, first.RowPtr) || !slices.Equal(c.Col, first.Col) {
					t.Fatalf("trial %d: %d vectors built a different CSR than 1", trial, n)
				}
			}
			if single := BuildCSR(lo, hi, pairs, dedup); !slices.Equal(single.Col, first.Col) {
				t.Fatalf("trial %d: BuildCSR differs from BuildCSRFrom", trial)
			}
			// The backing array is the pre-dedup adjacency count, never more.
			loops := 0
			for k := 0; k < len(pairs); k += 2 {
				if pairs[k] == pairs[k+1] {
					loops++
				}
			}
			if cap(first.Col) != npairs-loops {
				t.Fatalf("trial %d dedup=%v: cap(Col) = %d, want %d", trial, dedup, cap(first.Col), npairs-loops)
			}
		}
	}
}

// TestRouteEdgesOrder: every send vector lists its adjacencies by
// increasing edge index, (u, v) before (v, u), self-loops dropped, and
// is exactly as long as its content — the element order the set-up
// alltoallv has always carried.
func TestRouteEdgesOrder(t *testing.T) {
	params := rmat.Graph500(9)
	const lo, hi, nd = 100, 1500, 5
	dest := func(src, nbr int64) int { return int((src + 3*nbr) % nd) }
	want := make([][]int64, nd)
	for i := int64(lo); i < hi; i++ {
		u, v := params.EdgeAt(i)
		if u == v {
			continue
		}
		want[dest(u, v)] = append(want[dest(u, v)], u, v)
		want[dest(v, u)] = append(want[dest(v, u)], v, u)
	}
	got := RouteEdges(params, lo, hi, nd, dest)
	for d := range want {
		if !slices.Equal(got[d], want[d]) {
			t.Fatalf("destination %d: routed %v, want %v", d, got[d], want[d])
		}
		if cap(got[d]) != len(got[d]) {
			t.Fatalf("destination %d: capacity %d for %d values", d, cap(got[d]), len(got[d]))
		}
	}
	if empty := RouteEdges(params, 7, 7, 2, dest); len(empty) != 2 || len(empty[0])+len(empty[1]) != 0 {
		t.Fatalf("empty range routed %v", empty)
	}
}

// TestBuildCSRHostBytes: one build allocates its 8-byte row pointers and
// 4-byte columns and nothing else of size — the host layout, half the
// bytes per adjacency of the modelled one. The slack covers the CSR
// header and the allocator's page rounding of the two large arrays.
func TestBuildCSRHostBytes(t *testing.T) {
	params := rmat.Graph500(12)
	n := params.NumVertices()
	vecs := RouteEdges(params, 0, params.NumEdges(), 3, func(u, _ int64) int { return int(u % 3) })
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	c := BuildCSRFrom(0, n, vecs, true)
	runtime.ReadMemStats(&after)
	const slack = 16 << 10
	got := after.TotalAlloc - before.TotalAlloc
	if want := uint64(8*(n+1) + 4*int64(cap(c.Col)) + slack); got > want {
		t.Fatalf("BuildCSRFrom allocated %d bytes for %d rows and %d adjacencies, want <= %d", got, n, cap(c.Col), want)
	}
}

// TestBytesApproxIsModelLayout: BytesApprox is the Graph500 reference
// layout the cost model prices — 8 bytes per row pointer and per
// neighbour id — whatever the host stores.
func TestBytesApproxIsModelLayout(t *testing.T) {
	for _, dedup := range []bool{true, false} {
		c := BuildGlobal(rmat.Graph500(10), dedup)
		if got, want := c.BytesApprox(), 8*int64(len(c.RowPtr)+len(c.Col)); got != want {
			t.Errorf("dedup=%v: BytesApprox = %d, want %d", dedup, got, want)
		}
	}
}

// BenchmarkBuildCSR times the shared builder on what one rank of a
// scale-16 graph over 16 ranks receives from kernel 1's alltoallv: 16
// real pair vectors, ~130 k adjacencies over 4096 rows.
func BenchmarkBuildCSR(b *testing.B) {
	params := rmat.Graph500(16)
	const np, me = 16, 5
	part := NewPartition(params.NumVertices(), np)
	recv := make([][]int64, np)
	ne := params.NumEdges()
	for r := int64(0); r < np; r++ {
		recv[r] = RouteEdges(params, ne*r/np, ne*(r+1)/np, np, func(u, _ int64) int { return part.Owner(u) })[me]
	}
	lo, hi := part.Range(me)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if c := BuildCSRFrom(lo, hi, recv, true); c.NumEdges() == 0 {
			b.Fatal("empty partition")
		}
	}
}
