package graph

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"testing"

	"numabfs/internal/collective"
	"numabfs/internal/machine"
	"numabfs/internal/mpi"
	"numabfs/internal/rmat"
)

// testWorld builds a nodes x sockets world with no weak node.
func testWorld(nodes, sockets int) *mpi.World {
	cfg := machine.TableI()
	cfg.Nodes = nodes
	cfg.SocketsPerNode = sockets
	cfg.WeakNode = -1
	return mpi.NewWorld(cfg, machine.PlacementFor(cfg, machine.PPN8Bind))
}

// buildDistributed runs kernel 1 on w and returns every rank's CSR.
func buildDistributed(w *mpi.World, params rmat.Params, dedup bool) ([]*CSR, Partition) {
	g := collective.WorldGroup(w)
	part := NewPartition(params.NumVertices(), w.NumProcs())
	locals := make([]*CSR, w.NumProcs())
	w.Run(func(p *mpi.Proc) {
		locals[p.Rank()] = BuildDistributed(p, g, part, params, dedup)
	})
	return locals, part
}

// TestBuildDistributedMatchesGlobal: kernel 1's distributed construction
// must produce, across all ranks, exactly the adjacency structure of the
// sequential global build — on one rank, on a node pair and on the
// paper's 128 ranks. The virtual construction time and the alltoallv's
// message and byte counts are pinned to what the per-edge generator, the
// append-grown send vectors and the sort.Slice builder produced: they
// depend only on vector lengths and the modelled charges, which a host
// optimization of kernel 1 may not move.
func TestBuildDistributedMatchesGlobal(t *testing.T) {
	const scale = 13
	params := rmat.Graph500(scale)
	want := BuildGlobal(params, true)

	for _, c := range []struct {
		nodes, sockets int
		setupNs        float64
		msgs, bytes    int64
	}{
		{1, 1, 7.994839140251296e+06, 0, 0},
		{2, 4, 1.3082603789692493e+06, 56, 3664064},
		{16, 8, 475012.88592585304, 16256, 4153600},
	} {
		t.Run(fmt.Sprintf("np%d", c.nodes*c.sockets), func(t *testing.T) {
			w := testWorld(c.nodes, c.sockets)
			locals, part := buildDistributed(w, params, true)
			for rank, csr := range locals {
				lo, hi := part.Range(rank)
				if csr.Lo != lo || csr.Hi != hi {
					t.Fatalf("rank %d: range [%d,%d), want [%d,%d)", rank, csr.Lo, csr.Hi, lo, hi)
				}
				for v := lo; v < hi; v++ {
					got := csr.Neighbors(v)
					ref := want.Neighbors(v)
					if len(got) != len(ref) {
						t.Fatalf("vertex %d: %d neighbours, want %d", v, len(got), len(ref))
					}
					for k := range got {
						if got[k] != ref[k] {
							t.Fatalf("vertex %d neighbour %d: %d, want %d", v, k, got[k], ref[k])
						}
					}
				}
			}
			if got := w.MaxClock(); got != c.setupNs {
				t.Errorf("virtual construction time %v ns, want %v", got, c.setupNs)
			}
			vol := w.Net().Volume()
			if msgs, bytes := vol.IntraMsgs+vol.InterMsgs, vol.IntraBytes+vol.InterBytes; msgs != c.msgs || bytes != c.bytes {
				t.Errorf("alltoallv moved %d messages, %d bytes; want %d, %d", msgs, bytes, c.msgs, c.bytes)
			}
		})
	}
}

// TestBuildGlobalGolden pins the product of kernel 1 itself — row
// pointers and sorted, deduplicated columns of the whole scale-12 graph
// (and of the multigraph) — to the hash the previous builder produced.
func TestBuildGlobalGolden(t *testing.T) {
	for _, c := range []struct {
		dedup bool
		edges int64
		want  uint64
	}{
		{true, 97048, 0xb5cf41d4e58b1b83},
		{false, 130658, 0xa0dd966f59eb0cd1},
	} {
		csr := BuildGlobal(rmat.Graph500(12), c.dedup)
		if got := hashCSR(csr.RowPtr, csr.Col); csr.NumEdges() != c.edges || got != c.want {
			t.Errorf("dedup=%v: %d adjacencies, hash %#x; want %d, %#x", c.dedup, csr.NumEdges(), got, c.edges, c.want)
		}
	}
}

// hashCSR is FNV-1a-64 over the little-endian row pointers, then
// columns, each column widened to the 8 bytes it was hashed as when Col
// held int64 ids.
func hashCSR(rowPtr []int64, col []uint32) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(x int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(x))
		h.Write(buf[:])
	}
	for _, x := range rowPtr {
		put(x)
	}
	for _, x := range col {
		put(int64(x))
	}
	return h.Sum64()
}
