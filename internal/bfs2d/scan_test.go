package bfs2d

// Tests of the 2-D bottom-up scan kernel (run.go buScan,
// bitmap.BottomUpScan) against the per-vertex loop it replaced, kept here
// verbatim: same fold send vectors and per-chunk PhaseLoads — hence
// virtual clocks — bit for bit, on inputs R-MAT does not produce.

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"reflect"
	"slices"
	"testing"

	"numabfs/internal/bitmap"
	"numabfs/internal/graph"
	"numabfs/internal/machine"
	"numabfs/internal/omp"
	"numabfs/internal/rmat"
	"numabfs/internal/testgraphs"
)

// referenceBUScanFold is the scan phase of buScanFold as it stood before
// the kernel: a visited-bit test per column vertex, two divides and a
// summary divide per edge. chunks receives a copy of every chunk's
// PhaseLoad; the candidates land in rs.sendCol.
func referenceBUScanFold(rs *rankState, chunks *[]machine.PhaseLoad) omp.Result {
	r := rs.r
	cLo, _ := r.colRange(rs.j)
	width := int64(r.Grid.R) * r.blockSize

	send := rs.sendCol
	for i := range send {
		send[i] = send[i][:0]
	}
	return rs.team.For(width, omp.DefaultChunk, func(lo, hi int64, load *machine.PhaseLoad) {
		var cSum, cRow, cEdges, cFound int64
		for u := lo; u < hi; u++ {
			if rs.colVisited.Get(u) {
				continue
			}
			for _, w := range rs.col[rs.rowPtr[u]:rs.rowPtr[u+1]] {
				v := int64(w)
				cEdges++
				jc := int(v / (int64(r.Grid.R) * r.blockSize))
				si := int64(jc)*r.blockSize + v%r.blockSize
				cSum++
				if rs.rowSum.CoveredZero(si) {
					continue
				}
				cRow++
				if rs.rowFront.Get(si) {
					cFound++
					iu := int(u / r.blockSize)
					send[iu] = append(send[iu], u+cLo, v)
					break
				}
			}
		}
		load.Random = []machine.Access{
			{Count: cSum, StructBytes: rs.rowSum.Bytes(), Loc: r.pl.PrivateLoc},
			{Count: cRow, StructBytes: rs.rowFront.Bytes(), Loc: r.pl.PrivateLoc},
		}
		load.SeqBytes = (hi-lo)/8 + cEdges*8 + cFound*16
		load.SeqLoc = r.pl.GraphLoc
		load.CPUOps = cEdges*2 + (hi - lo)
		*chunks = append(*chunks, *load)
	})
}

// scanRunner2D sets up an 8-rank grid (512 vertices per block) in
// bottom-up mode and replaces every rank's adjacency by the input's.
func scanRunner2D(t *testing.T, in testgraphs.Input, grid Grid, g int64) *Runner {
	t.Helper()
	const scale = 12
	r := setUp(t, testConfig(scale, 2, 4), grid, rmat.Graph500(scale), 0, ModeBottomUp, false)
	// As in Setup: adjacency (u, v) lives at (row of v's block, column of u).
	pairs := in.Route(grid.R*grid.C, func(u, v int64) int {
		j := int(u / (int64(grid.R) * r.blockSize))
		return j*grid.R + int(v/r.blockSize)%grid.R
	})
	for cell, rs := range r.states {
		cLo, cHi := r.colRange(rs.j)
		csr := graph.BuildCSR(cLo, cHi, pairs[cell], in.Dedup)
		rs.rowPtr, rs.col = csr.RowPtr, csr.Col
		// The engine's summary granule is fixed; the scan is checked at g.
		rs.rowSum = bitmap.NewSummary(int64(grid.C)*r.blockSize, g)
	}
	return r
}

// compareScanLevels2D drives a bottom-up traversal from root level by
// level over the grid's rank states without the message layer, scanning
// every rank once with the reference loop and once with the kernel from
// the same state. Returns the number of levels run.
func compareScanLevels2D(t *testing.T, r *Runner, root int64) int {
	t.Helper()
	n := r.Params.NumVertices()
	visited, frontier := make([]bool, n), []int64{root}
	visited[root] = true
	levels := 0
	for ; len(frontier) > 0; levels++ {
		inFrontier := make([]bool, n)
		for _, v := range frontier {
			inFrontier[v] = true
		}
		var next []int64
		for _, rs := range r.states {
			where := fmt.Sprintf("level %d cell (%d,%d)", levels, rs.i, rs.j)
			cLo, cHi := r.colRange(rs.j)
			rs.colVisited.Reset()
			for u := cLo; u < cHi; u++ {
				if visited[u] {
					rs.colVisited.Set(u - cLo)
				}
			}
			// Row-frontier bit jc*blockSize+off is vertex off of the
			// block at grid position (rs.i, jc).
			rs.rowFront.Reset()
			for jc := 0; jc < r.Grid.C; jc++ {
				for off := int64(0); off < r.blockSize; off++ {
					if inFrontier[r.block(rs.i, jc)*r.blockSize+off] {
						rs.rowFront.Set(int64(jc)*r.blockSize + off)
					}
				}
			}
			rs.rowSum.Rebuild(rs.rowFront)

			var wantLoads, gotLoads []machine.PhaseLoad
			wantRes := referenceBUScanFold(rs, &wantLoads)
			wantSend := make([][]int64, len(rs.sendCol))
			for i, vec := range rs.sendCol {
				wantSend[i] = slices.Clone(vec)
				rs.sendCol[i] = vec[:0]
			}
			gotRes := rs.team.For(cHi-cLo, omp.DefaultChunk, func(lo, hi int64, load *machine.PhaseLoad) {
				rs.buScan(lo, hi, load)
				l := *load
				l.Random = slices.Clone(l.Random)
				gotLoads = append(gotLoads, l)
			})
			for i := range wantSend {
				if !slices.Equal(rs.sendCol[i], wantSend[i]) {
					t.Fatalf("%s: fold send vector %d differs", where, i)
				}
			}
			if !reflect.DeepEqual(gotLoads, wantLoads) {
				t.Fatalf("%s: per-chunk PhaseLoads differ:\n got %+v\nwant %+v", where, gotLoads, wantLoads)
			}
			if math.Float64bits(gotRes.Ns) != math.Float64bits(wantRes.Ns) {
				t.Fatalf("%s: region cost %v, want %v", where, gotRes.Ns, wantRes.Ns)
			}
			for _, vec := range wantSend {
				for k := 0; k < len(vec); k += 2 {
					next = append(next, vec[k])
				}
			}
		}
		frontier = frontier[:0]
		for _, v := range next {
			if !visited[v] {
				visited[v] = true
				frontier = append(frontier, v)
			}
		}
	}
	return levels
}

// TestScanMatchesReference: kernel == reference on every adversarial
// input, on a wide and a tall grid, at power-of-two and other summary
// granularities.
func TestScanMatchesReference(t *testing.T) {
	for _, in := range testgraphs.Adversarial(1<<12, 8) {
		for _, grid := range []Grid{{R: 2, C: 4}, {R: 4, C: 2}} {
			for _, g := range []int64{64, 192, 256} {
				t.Run(fmt.Sprintf("%s/grid%dx%d/g%d", in.Name, grid.R, grid.C, g), func(t *testing.T) {
					r := scanRunner2D(t, in, grid, g)
					if levels := compareScanLevels2D(t, r, in.Root); levels < 2 {
						t.Fatalf("traversal from %d ended after %d levels", in.Root, levels)
					}
				})
			}
		}
	}
}

// scanGolden holds, per mode and compression, FNV-1a-64 over the
// little-endian parent blocks in cell order followed by the bits of the
// iteration's virtual time, for two scale-14 roots.
var scanGolden = map[string][2]uint64{
	"top-down compress=false":  {0xc5dbd0251a3927a7, 0xa806a9a83fa20599},
	"top-down compress=true":   {0xeb07010ae4b64c6d, 0xd9744ac8e9f537c6},
	"hybrid compress=false":    {0x41fe5dedca6faa33, 0xd5aae28bac9d47bc},
	"hybrid compress=true":     {0xe05dbb993de43370, 0x28282c70322166c5},
	"bottom-up compress=false": {0xb62d4573bb310a06, 0xdc8303dee04f54b8},
	"bottom-up compress=true":  {0xca0baba5a7b15769, 0x78866a5e75d640af},
}

// TestScanGolden pins parent trees and virtual times of two scale-14
// roots in the three traversal modes, with and without compression, to
// the values the per-vertex loop produced at the commit before the
// kernel.
func TestScanGolden(t *testing.T) {
	const scale = 14
	params := rmat.Graph500(scale)
	for _, mode := range []Mode{ModeTopDown, ModeHybrid, ModeBottomUp} {
		for _, compress := range []bool{false, true} {
			name := fmt.Sprintf("%s compress=%v", mode, compress)
			r := setUp(t, testConfig(scale, 2, 4), DefaultGrid(8), params, 0, mode, compress)
			for k, root := range params.Roots(2, r.HasEdgeGlobal) {
				res := r.RunRoot(root)
				h := fnv.New64a()
				var buf [8]byte
				for _, pa := range r.ParentArrays() {
					for _, x := range pa {
						binary.LittleEndian.PutUint64(buf[:], uint64(x))
						h.Write(buf[:])
					}
				}
				binary.LittleEndian.PutUint64(buf[:], math.Float64bits(res.TimeNs))
				h.Write(buf[:])
				if got, want := h.Sum64(), scanGolden[name][k]; got != want {
					t.Errorf("%s root %d: tree+time hash %#x, want %#x", name, k, got, want)
				}
			}
		}
	}
}
