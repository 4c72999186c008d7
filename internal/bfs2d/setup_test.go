package bfs2d

import (
	"encoding/binary"
	"hash/fnv"
	"testing"

	"numabfs/internal/machine"
	"numabfs/internal/rmat"
)

// TestSetupGolden pins the 2-D kernel 1 on the default grid of a 2-node
// machine at scale 12: every rank's local adjacency (FNV-1a-64 over its
// little-endian row pointers, then its sorted, deduplicated columns) and
// the virtual construction time, as the engine's own counting / fill /
// sort.Slice loop produced them before set-up moved onto
// graph.RouteEdges and graph.BuildCSRFrom.
func TestSetupGolden(t *testing.T) {
	r, err := NewRunner(testConfig(12, 2, 4), machine.PPN8Bind, DefaultGrid(8), rmat.Graph500(12), 0)
	if err != nil {
		t.Fatal(err)
	}
	r.Setup()
	want := []uint64{
		0xcdf991d6c3d06d5b, 0x44dc51c7670eac1f, 0xd632136eaa07fd2a, 0xfcd7c42792761ebf,
		0x5f6cb6af3fe376ec, 0x97f0526c5a4cd497, 0x0a0aa0bf007262a3, 0x54bf6943cbb3d184,
	}
	var stored int64
	for rank, rs := range r.states {
		stored += int64(len(rs.col))
		h := fnv.New64a()
		var buf [8]byte
		put := func(x int64) {
			binary.LittleEndian.PutUint64(buf[:], uint64(x))
			h.Write(buf[:])
		}
		for _, x := range rs.rowPtr {
			put(x)
		}
		for _, x := range rs.col {
			put(int64(x)) // hashed as the 8-byte ids the golden was taken over
		}
		if got := h.Sum64(); got != want[rank] {
			t.Errorf("rank %d: adjacency hash %#x, want %#x", rank, got, want[rank])
		}
	}
	if want := 548558.1974221448; r.SetupNs != want {
		t.Errorf("SetupNs = %v, want %v", r.SetupNs, want)
	}
	if want := int64(97048); stored != want {
		t.Errorf("stored adjacencies = %d, want %d", stored, want)
	}
}
