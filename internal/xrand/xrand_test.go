package xrand

import (
	"testing"
)

func TestSplitMix64PinnedValues(t *testing.T) {
	// Pinned outputs for seed 1234567: any change to the mixing
	// constants silently reshuffles every generated graph, so the stream
	// is locked here.
	s := NewSplitMix64(1234567)
	want := []uint64{0x599ed017fb08fc85, 0x2c73f08458540fa5, 0x883ebce5a3f27c77}
	for i, w := range want {
		if got := s.Uint64(); got != w {
			t.Fatalf("value %d = %#x, want %#x", i, got, w)
		}
	}
}

func TestSplitMix64Deterministic(t *testing.T) {
	a, b := NewSplitMix64(42), NewSplitMix64(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
}

func TestXoshiroDeterministicAndSeedSensitive(t *testing.T) {
	a, b := NewXoshiro256(7), NewXoshiro256(7)
	c := NewXoshiro256(8)
	same, diff := true, false
	for i := 0; i < 64; i++ {
		av := a.Uint64()
		if av != b.Uint64() {
			same = false
		}
		if av != c.Uint64() {
			diff = true
		}
	}
	if !same {
		t.Fatal("same seed diverged")
	}
	if !diff {
		t.Fatal("different seeds produced identical streams")
	}
}

func TestFloat64Range(t *testing.T) {
	x := NewXoshiro256(99)
	for i := 0; i < 10000; i++ {
		f := x.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 = %g out of [0,1)", f)
		}
	}
}

func TestUint64nBounds(t *testing.T) {
	x := NewXoshiro256(3)
	for _, n := range []uint64{1, 2, 3, 7, 64, 1000, 1 << 40} {
		for i := 0; i < 1000; i++ {
			if v := x.Uint64n(n); v >= n {
				t.Fatalf("Uint64n(%d) = %d", n, v)
			}
		}
	}
}

func TestUint64nZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewXoshiro256(1).Uint64n(0)
}

func TestUint64nRoughlyUniform(t *testing.T) {
	x := NewXoshiro256(5)
	const n, iters = 10, 100000
	var counts [n]int
	for i := 0; i < iters; i++ {
		counts[x.Uint64n(n)]++
	}
	for b, c := range counts {
		if c < iters/n*8/10 || c > iters/n*12/10 {
			t.Fatalf("bucket %d has %d of %d draws", b, c, iters)
		}
	}
}

func TestInt63NonNegative(t *testing.T) {
	x := NewXoshiro256(11)
	for i := 0; i < 10000; i++ {
		if x.Int63() < 0 {
			t.Fatal("Int63 returned negative")
		}
	}
}

func TestXoshiroPinnedValues(t *testing.T) {
	// Pinned outputs for seed 1234567, taken when the state was a
	// [4]uint64 behind a heap pointer: R-MAT edges, root draws and query
	// workloads all hang off this stream.
	x := NewXoshiro256(1234567)
	want := []uint64{0x30a3a1c363600467, 0x19405f0f579929ca, 0x115beaac046ddbd9, 0xeb17caf48f27d7f6}
	for i, w := range want {
		if got := x.Uint64(); got != w {
			t.Fatalf("value %d = %#x, want %#x", i, got, w)
		}
	}
}

func TestStepMatchesGenerator(t *testing.T) {
	// The by-value form (state in the caller's locals) is the same
	// generator as the method form.
	for _, seed := range []uint64{0, 1, 1234567, 1 << 63} {
		x := NewXoshiro256(seed)
		s0, s1, s2, s3 := SeedXoshiro256(seed)
		for i := 0; i < 1000; i++ {
			var out uint64
			out, s0, s1, s2, s3 = StepXoshiro256(s0, s1, s2, s3)
			if want := x.Uint64(); out != want {
				t.Fatalf("seed %d draw %d: step %#x, generator %#x", seed, i, out, want)
			}
			if f := UnitFloat64(out); f < 0 || f >= 1 {
				t.Fatalf("UnitFloat64(%#x) = %g", out, f)
			}
		}
	}
}
