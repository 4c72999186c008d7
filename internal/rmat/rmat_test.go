package rmat

import (
	"testing"
	"testing/quick"
)

func TestGraph500Params(t *testing.T) {
	p := Graph500(20)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if p.NumVertices() != 1<<20 {
		t.Fatalf("NumVertices = %d", p.NumVertices())
	}
	if p.NumEdges() != 16<<20 {
		t.Fatalf("NumEdges = %d", p.NumEdges())
	}
	if p.A != 0.57 || p.B != 0.19 || p.C != 0.19 || p.D != 0.05 {
		t.Fatalf("wrong quadrant probabilities: %+v", p)
	}
}

func TestValidateRejectsBadParams(t *testing.T) {
	bad := []Params{
		{Scale: 0, EdgeFactor: 16, A: 0.57, B: 0.19, C: 0.19, D: 0.05},
		{Scale: 33, EdgeFactor: 16, A: 0.57, B: 0.19, C: 0.19, D: 0.05},
		{Scale: 41, EdgeFactor: 16, A: 0.57, B: 0.19, C: 0.19, D: 0.05},
		{Scale: 10, EdgeFactor: 0, A: 0.57, B: 0.19, C: 0.19, D: 0.05},
		{Scale: 10, EdgeFactor: 16, A: 0.9, B: 0.19, C: 0.19, D: 0.05},
		{Scale: 10, EdgeFactor: 16, A: -0.1, B: 0.5, C: 0.5, D: 0.1},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

func TestEdgeAtDeterministicAndInRange(t *testing.T) {
	p := Graph500(12)
	n := p.NumVertices()
	for i := int64(0); i < 1000; i++ {
		u1, v1 := p.EdgeAt(i)
		u2, v2 := p.EdgeAt(i)
		if u1 != u2 || v1 != v2 {
			t.Fatalf("edge %d not deterministic", i)
		}
		if u1 < 0 || u1 >= n || v1 < 0 || v1 >= n {
			t.Fatalf("edge %d = (%d,%d) out of range", i, u1, v1)
		}
	}
}

func TestEdgesOrderIndependent(t *testing.T) {
	// Generating [0,100) in one call equals two disjoint slices — the
	// property distributed generation relies on.
	p := Graph500(10)
	all := p.Edges(nil, 0, 100)
	lo := p.Edges(nil, 0, 37)
	hi := p.Edges(nil, 37, 100)
	both := append(lo, hi...)
	if len(all) != len(both) {
		t.Fatalf("length mismatch: %d vs %d", len(all), len(both))
	}
	for i := range all {
		if all[i] != both[i] {
			t.Fatalf("edge stream differs at %d", i)
		}
	}
}

func TestScrambleIsBijection(t *testing.T) {
	p := Graph500(10)
	n := p.NumVertices()
	seen := make([]bool, n)
	for v := int64(0); v < n; v++ {
		s := p.ScrambleVertex(v)
		if s < 0 || s >= n {
			t.Fatalf("Scramble(%d) = %d out of range", v, s)
		}
		if seen[s] {
			t.Fatalf("ScrambleVertex collision at %d", s)
		}
		seen[s] = true
	}
}

func TestScrambleBijectionProperty(t *testing.T) {
	f := func(seed uint64, scaleSmall uint8) bool {
		scale := int(scaleSmall%8) + 4 // 4..11
		p := Graph500(scale).WithSeed(seed)
		n := p.NumVertices()
		seen := make(map[int64]bool, n)
		for v := int64(0); v < n; v++ {
			s := p.ScrambleVertex(v)
			if s < 0 || s >= n || seen[s] {
				return false
			}
			seen[s] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestSkewedDegreeDistribution(t *testing.T) {
	// R-MAT graphs are scale-free: the maximum vertex in-degree must far
	// exceed the average.
	p := Graph500(12)
	deg := make([]int64, p.NumVertices())
	for i := int64(0); i < p.NumEdges(); i++ {
		u, v := p.EdgeAt(i)
		deg[u]++
		deg[v]++
	}
	var max, sum int64
	for _, d := range deg {
		sum += d
		if d > max {
			max = d
		}
	}
	avg := float64(sum) / float64(len(deg))
	if float64(max) < 10*avg {
		t.Fatalf("max degree %d not >> avg %.1f: not scale-free", max, avg)
	}
}

func TestRootsDistinctWithEdges(t *testing.T) {
	p := Graph500(10)
	hasEdge := func(v int64) bool { return v%3 != 0 }
	roots := p.Roots(16, hasEdge)
	if len(roots) != 16 {
		t.Fatalf("got %d roots", len(roots))
	}
	seen := make(map[int64]bool)
	for _, r := range roots {
		if seen[r] {
			t.Fatalf("duplicate root %d", r)
		}
		if !hasEdge(r) {
			t.Fatalf("root %d has no edges", r)
		}
		seen[r] = true
	}
}

func TestDifferentSeedsDifferentGraphs(t *testing.T) {
	a := Graph500(10)
	b := Graph500(10).WithSeed(999)
	same := true
	for i := int64(0); i < 64; i++ {
		ua, va := a.EdgeAt(i)
		ub, vb := b.EdgeAt(i)
		if ua != ub || va != vb {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced the same edges")
	}
}
