package bitmap

import "testing"

func TestLanePlaneBasics(t *testing.T) {
	p := NewLanePlane(130)
	if p.Len() != 130 || len(p.Words()) != 130 {
		t.Fatalf("plane geometry: len=%d words=%d", p.Len(), len(p.Words()))
	}
	p.Or(5, 1<<3)
	p.Or(5, 1<<7)
	p.Or(129, ^uint64(0))
	if p.Word(5) != (1<<3)|(1<<7) {
		t.Fatalf("word(5) = %#x", p.Word(5))
	}
	if p.Word(129) != ^uint64(0) || p.Word(6) != 0 {
		t.Fatalf("word(129) = %#x, word(6) = %#x", p.Word(129), p.Word(6))
	}
}

func TestPlaneFromWordsAliases(t *testing.T) {
	words := make([]uint64, 8)
	p := PlaneFromWords(words, 8)
	p.Or(3, 1<<60)
	if words[3] != 1<<60 {
		t.Fatal("PlaneFromWords did not alias the backing slice")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("undersized PlaneFromWords did not panic")
		}
	}()
	PlaneFromWords(words, 9)
}

func TestLaneSummaryExactPerLane(t *testing.T) {
	const n, g = 300, 64
	p := NewLanePlane(n)
	s := NewLaneSummary(n, g)
	// Lane 0 dense in granule 0, lane 5 only in granule 2.
	for v := int64(0); v < 64; v++ {
		p.Or(v, 1)
	}
	p.Or(150, 1<<5)
	s.Rebuild(p)
	if !s.Consistent(p) {
		t.Fatal("summary inconsistent after Rebuild")
	}
	// Lane 5 must short-circuit in granule 0 even though lane 0 is dense
	// there — the per-lane OR keeps the filter exact.
	if !s.CoveredZero(10, 1<<5) {
		t.Fatal("lane 5 not covered-zero in granule 0")
	}
	if s.CoveredZero(10, 1) {
		t.Fatal("lane 0 wrongly covered-zero in granule 0")
	}
	if s.CoveredZero(150, 1<<5) {
		t.Fatal("lane 5 wrongly covered-zero in its own granule")
	}
	// A masked query over both lanes is zero only where both are empty.
	if !s.CoveredZero(250, (1<<5)|1) {
		t.Fatal("granule 3 should be covered-zero for lanes {0,5}")
	}
}

func TestLaneSummaryRebuildRange(t *testing.T) {
	const n, g = 256, 64
	p := NewLanePlane(n)
	s := NewLaneSummary(n, g)
	p.Or(70, 1<<9)
	if w := s.RebuildRange(p, 64, 128); w != 1 {
		t.Fatalf("RebuildRange wrote %d words, want 1", w)
	}
	if s.CoveredZero(70, 1<<9) {
		t.Fatal("rebuilt granule missing lane 9")
	}
	// Clearing the plane and rebuilding the range must clear the word.
	p.Words()[70] = 0
	s.RebuildRange(p, 64, 128)
	if !s.CoveredZero(70, ^uint64(0)) {
		t.Fatal("rebuilt granule not cleared")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("unaligned RebuildRange did not panic")
		}
	}()
	s.RebuildRange(p, 1, 128)
}

func TestLaneSummaryTailGranule(t *testing.T) {
	// n not a granule multiple: the last summary word covers a short tail.
	const n, g = 100, 64
	p := NewLanePlane(n)
	s := NewLaneSummary(n, g)
	p.Or(99, 1<<63)
	s.Rebuild(p)
	if s.CoveredZero(99, 1<<63) {
		t.Fatal("tail granule missing lane 63")
	}
	if !s.Consistent(p) {
		t.Fatal("tail summary inconsistent")
	}
}
