package bitmap

import (
	"testing"
	"testing/quick"

	"numabfs/internal/xrand"
)

func TestSummaryRebuildConsistency(t *testing.T) {
	const n = 4096
	for _, g := range []int64{64, 128, 256, 1024, 4096} {
		b := New(n)
		for _, i := range []int64{0, 100, 1000, 4095} {
			b.Set(i)
		}
		s := NewSummary(n, g)
		s.Rebuild(b)
		if !s.Consistent(b) {
			t.Fatalf("g=%d: inconsistent after Rebuild", g)
		}
		// CoveredZero must never claim zero for a granule with a set bit.
		for _, i := range []int64{0, 100, 1000, 4095} {
			if s.CoveredZero(i) {
				t.Fatalf("g=%d: CoveredZero(%d) = true for a set bit", g, i)
			}
		}
	}
}

func TestSummaryZeroFraction(t *testing.T) {
	const n = 4096
	b := New(n)
	b.Set(0) // only granule 0 is non-zero
	s := NewSummary(n, 64)
	s.Rebuild(b)
	if got, want := s.ZeroFraction(), 63.0/64.0; got != want {
		t.Fatalf("ZeroFraction = %g, want %g", got, want)
	}
	// Larger granularity -> fewer summary bits -> lower zero fraction
	// for clustered ones, equal or lower in general.
	s2 := NewSummary(n, 4096)
	s2.Rebuild(b)
	if s2.ZeroFraction() != 0 {
		t.Fatalf("one set bit with full-coverage granule: ZeroFraction = %g", s2.ZeroFraction())
	}
}

func TestSummaryRebuildRange(t *testing.T) {
	const n, g = 2048, 128
	b := New(n)
	b.Set(130)  // granule 1
	b.Set(1500) // granule 11
	s := NewSummary(n, g)
	// Rebuild only the first half; the second half stays stale-zero.
	s.RebuildRange(b, 0, 1024)
	if s.CoveredZero(130) {
		t.Fatal("granule 1 not rebuilt")
	}
	if !s.CoveredZero(1500) {
		t.Fatal("granule 11 rebuilt although out of range")
	}
	s.RebuildRange(b, 1024, 2048)
	if s.CoveredZero(1500) {
		t.Fatal("granule 11 not rebuilt by second half")
	}
	if !s.Consistent(b) {
		t.Fatal("inconsistent after both halves")
	}
}

func TestSummaryRangePanicsOnMisalignment(t *testing.T) {
	s := NewSummary(1024, 128)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	s.RebuildRange(New(1024), 64, 1024) // 64 not granule-aligned
}

func TestNewSummaryValidatesGranularity(t *testing.T) {
	for _, g := range []int64{0, -64, 32, 100} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("g=%d: expected panic", g)
				}
			}()
			NewSummary(1024, g)
		}()
	}
}

func TestWrapSummarySharesBits(t *testing.T) {
	words := make([]uint64, 1)
	base := New(1024)
	base.Set(70)
	s := WrapSummary(FromWords(words, 16), 64, 1024)
	s.Rebuild(base)
	if words[0] != 1<<1 {
		t.Fatalf("backing words = %b, want bit 1", words[0])
	}
}

// Property: after any sequence of random sets, Rebuild yields a summary
// where CoveredZero(i) implies the whole granule of i is zero, and every
// granule with a set bit has its summary bit set — for any granularity.
func TestSummaryInvariantProperty(t *testing.T) {
	f := func(seed uint64, gPick uint8) bool {
		gs := []int64{64, 128, 256, 512, 1024}
		g := gs[int(gPick)%len(gs)]
		const n = 1 << 13
		b := New(n)
		rng := xrand.NewXoshiro256(seed)
		for k := 0; k < 200; k++ {
			b.Set(int64(rng.Uint64n(n)))
		}
		s := NewSummary(n, g)
		s.Rebuild(b)
		if !s.Consistent(b) {
			return false
		}
		for i := int64(0); i < n; i++ {
			if s.CoveredZero(i) && b.Get(i) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Property: zero fraction is monotonically non-increasing in granularity.
func TestZeroFractionMonotoneProperty(t *testing.T) {
	f := func(seed uint64) bool {
		const n = 1 << 13
		b := New(n)
		rng := xrand.NewXoshiro256(seed)
		for k := 0; k < 64; k++ {
			b.Set(int64(rng.Uint64n(n)))
		}
		prev := 1.1
		for _, g := range []int64{64, 128, 256, 512, 1024} {
			s := NewSummary(n, g)
			s.Rebuild(b)
			zf := s.ZeroFraction()
			if zf > prev+1e-12 {
				return false
			}
			prev = zf
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestSummaryGranuleMatchesDivision: the shift taken at power-of-two
// granularities and the divide left for the others give the index plain
// division gives, for every base bit including the last, partial granule
// — and CoveredZero reads exactly that summary bit, or that lane-summary
// word.
func TestSummaryGranuleMatchesDivision(t *testing.T) {
	const n = 3*4096 + 100 // last granule partial at every g below
	for _, g := range []int64{64, 128, 192, 256, 4096} {
		s := NewSummary(n, g)
		if want := (n + g - 1) / g; s.Bits().Len() != want {
			t.Fatalf("g=%d: %d summary bits, want %d", g, s.Bits().Len(), want)
		}
		for i := int64(0); i < n; i++ {
			if got := granule(i, g); got != i/g {
				t.Fatalf("g=%d: granule(%d) = %d, want %d", g, i, got, i/g)
			}
		}
		base := New(n)
		for _, i := range []int64{g - 1, g, 2*g + 5, n - 1} {
			if !s.CoveredZero(i) {
				t.Fatalf("g=%d: fresh summary covers bit %d as set", g, i)
			}
			base.Set(i)
			s.Bits().Set(i / g)
			if s.CoveredZero(i) || s.CoveredZero(i/g*g) {
				t.Fatalf("g=%d: granule %d set but bit %d reads covered-zero", g, i/g, i)
			}
		}
		if !s.Consistent(base) {
			t.Fatalf("g=%d: summary inconsistent with its base", g)
		}
	}
	// Lane summary: word gi holds lane gi%64 only, so a vertex must see
	// its own granule's lane and not its successor's.
	for _, g := range []int64{64, 192, 256} {
		ls := NewLaneSummary(n, g)
		words := ls.Plane().Words()
		for gi := range words {
			words[gi] = 1 << (gi & 63)
		}
		for v := int64(0); v < n; v++ {
			own, next := uint64(1)<<(v/g&63), uint64(1)<<((v/g+1)&63)
			if ls.CoveredZero(v, own) || !ls.CoveredZero(v, next) {
				t.Fatalf("g=%d: vertex %d does not read lane-summary word %d", g, v, v/g)
			}
		}
	}
}
