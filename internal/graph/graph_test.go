package graph

import (
	"fmt"
	"sort"
	"testing"
	"testing/quick"

	"numabfs/internal/rmat"
)

func TestPartitionBasics(t *testing.T) {
	p := NewPartition(1024, 8)
	var total int64
	for r := 0; r < 8; r++ {
		lo, hi := p.Range(r)
		if lo%64 != 0 {
			t.Errorf("rank %d: boundary %d not word-aligned", r, lo)
		}
		total += hi - lo
		for v := lo; v < hi; v++ {
			if p.Owner(v) != r {
				t.Fatalf("Owner(%d) = %d, want %d", v, p.Owner(v), r)
			}
		}
	}
	if total != 1024 {
		t.Fatalf("ranges cover %d vertices, want 1024", total)
	}
}

// TestOwnerMatchesSearch: the shift (power-of-two chunk) and the divide
// (any other chunk) both name the rank whose Offsets() range holds v,
// for every v.
func TestOwnerMatchesSearch(t *testing.T) {
	check := func(name string, p Partition) {
		t.Helper()
		offs := p.Offsets()
		for v := int64(0); v < p.N; v++ {
			want := sort.Search(p.NP, func(r int) bool { return offs[r+1] > v })
			if got := p.Owner(v); got != want {
				t.Fatalf("%s: Owner(%d) = %d, want %d", name, v, got, want)
			}
		}
	}
	for _, c := range []struct {
		n     int64
		np    int
		shift bool
	}{{1 << 12, 16, true}, {1 << 12, 3, false}, {1000, 7, false}, {1 << 14, 128, true}} {
		p := NewPartition(c.n, c.np)
		if (p.shift != 0) != c.shift {
			t.Errorf("(%d, %d): shift %d, want a shift: %v", c.n, c.np, p.shift, c.shift)
		}
		check(fmt.Sprintf("(%d, %d)", c.n, c.np), p)
	}
}

func TestPartitionUnevenTail(t *testing.T) {
	// 640 vertices over 7 ranks: chunks of ceil(640/7)=92 -> 128 aligned;
	// later ranks may own nothing, but coverage must be exact and
	// disjoint.
	p := NewPartition(640, 7)
	var total int64
	for r := 0; r < 7; r++ {
		lo, hi := p.Range(r)
		total += hi - lo
	}
	if total != 640 {
		t.Fatalf("coverage %d, want 640", total)
	}
}

func TestPartitionProperty(t *testing.T) {
	f := func(nSmall uint16, npSmall uint8) bool {
		np := int(npSmall%16) + 1
		n := int64(nSmall%4096) + int64(np)*64
		p := NewPartition(n, np)
		// Complete, disjoint, owner-consistent.
		var total int64
		for r := 0; r < np; r++ {
			lo, hi := p.Range(r)
			if hi < lo {
				return false
			}
			total += hi - lo
		}
		if total != n {
			return false
		}
		for _, v := range []int64{0, n / 3, n / 2, n - 1} {
			r := p.Owner(v)
			lo, hi := p.Range(r)
			if v < lo || v >= hi {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestBuildCSRSortsAndDrops(t *testing.T) {
	pairs := []int64{
		0, 5, 0, 3, 0, 5, // duplicate (0,5)
		1, 1, // self loop: dropped
		2, 0,
	}
	c := BuildCSR(0, 4, pairs, true)
	if got := c.Neighbors(0); len(got) != 2 || got[0] != 3 || got[1] != 5 {
		t.Fatalf("Neighbors(0) = %v", got)
	}
	if c.Degree(1) != 0 {
		t.Fatalf("self loop survived: %v", c.Neighbors(1))
	}
	if got := c.Neighbors(2); len(got) != 1 || got[0] != 0 {
		t.Fatalf("Neighbors(2) = %v", got)
	}
	if c.HasEdge(3) {
		t.Fatal("vertex 3 should have no edges")
	}
	// Without dedup, the duplicate stays.
	c2 := BuildCSR(0, 4, pairs, false)
	if c2.Degree(0) != 3 {
		t.Fatalf("no-dedup Degree(0) = %d, want 3", c2.Degree(0))
	}
}

func TestBuildCSRPanicsOnForeignSource(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	BuildCSR(0, 4, []int64{7, 1}, true)
}

func TestBuildGlobalUndirected(t *testing.T) {
	p := rmat.Graph500(10)
	c := BuildGlobal(p, true)
	// Symmetry: u in N(v) iff v in N(u).
	for v := int64(0); v < c.Hi; v++ {
		for _, u := range c.Neighbors(v) {
			found := false
			for _, w := range c.Neighbors(int64(u)) {
				if int64(w) == v {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("edge (%d,%d) not symmetric", v, u)
			}
		}
	}
}

func TestReferenceBFSSmall(t *testing.T) {
	// Path 0-1-2-3 plus isolated 4.
	pairs := []int64{0, 1, 1, 0, 1, 2, 2, 1, 2, 3, 3, 2}
	c := BuildCSR(0, 5, pairs, true)
	level, parent := ReferenceBFS(c, 0)
	wantLevel := []int64{0, 1, 2, 3, -1}
	for v, w := range wantLevel {
		if level[v] != w {
			t.Fatalf("level[%d] = %d, want %d", v, level[v], w)
		}
	}
	if parent[0] != 0 || parent[1] != 0 || parent[2] != 1 || parent[3] != 2 || parent[4] != -1 {
		t.Fatalf("parents = %v", parent)
	}
	if got := ConnectedComponent(c, 0); got != 4 {
		t.Fatalf("component size = %d, want 4", got)
	}
}

func TestReferenceBFSLevelsMonotone(t *testing.T) {
	p := rmat.Graph500(10)
	c := BuildGlobal(p, true)
	root := p.Roots(1, c.HasEdge)[0]
	level, parent := ReferenceBFS(c, root)
	for v := range level {
		if level[v] < 0 {
			if parent[v] != -1 {
				t.Fatalf("unreached %d has parent", v)
			}
			continue
		}
		if int64(v) == root {
			continue
		}
		if level[v] != level[parent[v]]+1 {
			t.Fatalf("vertex %d level %d, parent level %d", v, level[v], level[parent[v]])
		}
	}
}
