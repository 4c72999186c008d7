package stats

import "testing"

func TestHistogramEmpty(t *testing.T) {
	h := NewHistogram(0, 100, 10)
	if h.N != 0 || h.Sum != 0 || h.Under != 0 || h.Over != 0 || len(h.Counts) != 10 {
		t.Fatalf("empty histogram: %+v", h)
	}
	for i, c := range h.Counts {
		if c != 0 {
			t.Fatalf("empty histogram bucket %d = %d", i, c)
		}
	}
}

func TestHistogramSingleSample(t *testing.T) {
	h := NewHistogram(0, 100, 10)
	h.Add(42)
	if h.N != 1 || h.Sum != 42 {
		t.Fatalf("single sample: N=%d sum=%g", h.N, h.Sum)
	}
	if h.Counts[4] != 1 || h.Under != 0 || h.Over != 0 {
		t.Fatalf("single sample landed in %v (under %d, over %d)", h.Counts, h.Under, h.Over)
	}
}

func TestHistogramBucketsAndOverflow(t *testing.T) {
	h := NewHistogram(0, 100, 10)
	h.Add(-5)  // underflow
	h.Add(0)   // bucket 0 (inclusive lo)
	h.Add(99)  // bucket 9
	h.Add(100) // overflow (exclusive hi)
	h.Add(250) // overflow
	if h.Under != 1 || h.Over != 2 || h.N != 5 {
		t.Fatalf("under=%d over=%d n=%d", h.Under, h.Over, h.N)
	}
	if h.Counts[0] != 1 || h.Counts[9] != 1 {
		t.Fatalf("counts = %v", h.Counts)
	}
	if h.Sum != 444 {
		t.Fatalf("sum = %g", h.Sum)
	}
}

func TestHistogramConstructorValidation(t *testing.T) {
	for _, tc := range []struct {
		lo, hi float64
		n      int
	}{{0, 10, 0}, {0, 10, -1}, {5, 5, 4}, {10, 0, 4}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("NewHistogram(%g, %g, %d) did not panic", tc.lo, tc.hi, tc.n)
				}
			}()
			NewHistogram(tc.lo, tc.hi, tc.n)
		}()
	}
}
