package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestHarmonicMean(t *testing.T) {
	if got := HarmonicMean([]float64{2, 2, 2}); !almost(got, 2) {
		t.Fatalf("constant: %g", got)
	}
	// Classic: harmonic mean of 40 and 60 is 48.
	if got := HarmonicMean([]float64{40, 60}); !almost(got, 48) {
		t.Fatalf("40,60: %g", got)
	}
	if got := HarmonicMean(nil); got != 0 {
		t.Fatalf("empty: %g", got)
	}
	// Non-positive values collapse to 0 (a failed iteration dominates).
	if got := HarmonicMean([]float64{1, 0, 3}); got != 0 {
		t.Fatalf("with zero: %g", got)
	}
}

func TestHarmonicLeMeanProperty(t *testing.T) {
	// AM-HM inequality: harmonic mean <= arithmetic mean for positives.
	f := func(raw [6]uint32) bool {
		xs := make([]float64, len(raw))
		for i, r := range raw {
			xs[i] = float64(r%1000) + 1
		}
		return HarmonicMean(xs) <= Mean(xs)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestMeanStddev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Mean(xs); !almost(got, 5) {
		t.Fatalf("mean: %g", got)
	}
	if Mean(nil) != 0 {
		t.Fatal("degenerate cases")
	}
}

func TestMinMaxSum(t *testing.T) {
	xs := []float64{3, -1, 7}
	if Min(xs) != -1 || Max(xs) != 7 {
		t.Fatalf("min/max: %g %g", Min(xs), Max(xs))
	}
	if !math.IsInf(Min(nil), 1) || !math.IsInf(Max(nil), -1) {
		t.Fatal("empty min/max should be infinities")
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	cases := []struct{ q, want float64 }{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5},
	}
	for _, c := range cases {
		if got := Quantile(xs, c.q); !almost(got, c.want) {
			t.Errorf("Quantile(%g) = %g, want %g", c.q, got, c.want)
		}
	}
	// Interpolation between order statistics.
	if got := Quantile([]float64{0, 10}, 0.25); !almost(got, 2.5) {
		t.Fatalf("interpolated: %g", got)
	}
	if Quantile(nil, 0.5) != 0 {
		t.Fatal("empty quantile")
	}
	// Input must not be mutated (Quantile sorts a copy).
	in := []float64{3, 1, 2}
	Quantile(in, 0.5)
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Fatalf("input mutated: %v", in)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{15, 20, 35, 40, 50}
	if got := Percentile(xs, 0); got != 15 {
		t.Fatalf("p0 = %g", got)
	}
	if got := Percentile(xs, 100); got != 50 {
		t.Fatalf("p100 = %g", got)
	}
	if got := Percentile(xs, 50); got != 35 {
		t.Fatalf("p50 = %g", got)
	}
	// Linear interpolation between order statistics: p25 sits a quarter
	// of the way through the four gaps, i.e. at x[1].
	if got := Percentile(xs, 25); !almost(got, 20) {
		t.Fatalf("p25 = %g", got)
	}
	if got := Percentile(xs, 90); !almost(got, 46) {
		t.Fatalf("p90 = %g", got)
	}
	if got := Percentile(nil, 50); got != 0 {
		t.Fatalf("empty: %g", got)
	}
	// Out-of-range p clamps rather than panicking.
	if Percentile(xs, -10) != 15 || Percentile(xs, 200) != 50 {
		t.Fatal("clamping")
	}
}

func TestMinEmptyIsInf(t *testing.T) {
	// Documented contract: Min of nothing is the identity of min.
	if got := Min(nil); !math.IsInf(got, 1) {
		t.Fatalf("Min(nil) = %g, want +Inf", got)
	}
	if got := Max(nil); !math.IsInf(got, -1) {
		t.Fatalf("Max(nil) = %g, want -Inf", got)
	}
}
