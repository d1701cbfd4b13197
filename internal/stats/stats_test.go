package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// quickConfig is a quick.Config whose cases are drawn from a fixed seed,
// which it logs: a case that fails is the same case on the next run, not
// one the clock chose.
func quickConfig(t *testing.T, maxCount int) *quick.Config {
	const seed = 1
	t.Logf("quick.Check: %d cases from seed %d", maxCount, seed)
	return &quick.Config{MaxCount: maxCount, Rand: rand.New(rand.NewSource(seed))}
}

func TestMeanAndStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if Mean(xs) != 5 {
		t.Fatalf("mean %v", Mean(xs))
	}
	// Sample stddev of this classic set is ~2.138.
	if sd := StdDev(xs); math.Abs(sd-2.138) > 0.01 {
		t.Fatalf("stddev %v", sd)
	}
	if Mean(nil) != 0 || StdDev(nil) != 0 || StdDev([]float64{1}) != 0 {
		t.Fatal("degenerate inputs")
	}
}

func TestCI95ShrinksWithN(t *testing.T) {
	small := []float64{1, 2, 3, 4, 5}
	var big []float64
	for i := 0; i < 20; i++ {
		big = append(big, small...)
	}
	if CI95(big) >= CI95(small) {
		t.Fatalf("CI did not shrink: %v vs %v", CI95(big), CI95(small))
	}
}

func TestQuantileExactPoints(t *testing.T) {
	xs := []float64{10, 20, 30, 40, 50}
	cases := map[float64]float64{0: 10, 0.25: 20, 0.5: 30, 0.75: 40, 1: 50}
	for q, want := range cases {
		if got := Quantile(xs, q); got != want {
			t.Fatalf("q%.2f = %v, want %v", q, got, want)
		}
	}
	// Interpolation between points.
	if got := Quantile([]float64{0, 10}, 0.5); got != 5 {
		t.Fatalf("interpolated median %v", got)
	}
}

func TestQuantileDoesNotMutateInput(t *testing.T) {
	xs := []float64{3, 1, 2}
	Quantile(xs, 0.5)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatal("input mutated")
	}
}

func TestQuantileProperties(t *testing.T) {
	check := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				xs = append(xs, v)
			}
		}
		if len(xs) == 0 {
			return Quantile(xs, 0.5) == 0
		}
		sorted := append([]float64(nil), xs...)
		sort.Float64s(sorted)
		med := Quantile(xs, 0.5)
		if med < sorted[0] || med > sorted[len(sorted)-1] {
			return false
		}
		// Monotone in q.
		return Quantile(xs, 0.25) <= med && med <= Quantile(xs, 0.75)
	}
	if err := quick.Check(check, quickConfig(t, 300)); err != nil {
		t.Fatal(err)
	}
}

func TestBoxSummary(t *testing.T) {
	b := Box([]float64{1, 2, 3, 4, 100})
	if b.Min != 1 || b.Max != 100 || b.Median != 3 || b.N != 5 {
		t.Fatalf("%+v", b)
	}
	if b.Mean != 22 {
		t.Fatalf("mean %v", b.Mean)
	}
	if b.Q1 != 2 || b.Q3 != 4 {
		t.Fatalf("quartiles %v %v", b.Q1, b.Q3)
	}
	if z := Box(nil); z.N != 0 {
		t.Fatal("empty box")
	}
}

// TestBoxMatchesQuantiles pins the single-sort Box to the reference
// per-quantile computation, on unsorted input, without mutating it.
func TestBoxMatchesQuantiles(t *testing.T) {
	check := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				xs = append(xs, v)
			}
		}
		orig := append([]float64(nil), xs...)
		b := Box(xs)
		for i := range xs {
			if xs[i] != orig[i] {
				return false // input mutated
			}
		}
		if len(xs) == 0 {
			return b == BoxPlot{}
		}
		return b.Min == Quantile(xs, 0) &&
			b.Q1 == Quantile(xs, 0.25) &&
			b.Median == Quantile(xs, 0.5) &&
			b.Q3 == Quantile(xs, 0.75) &&
			b.Max == Quantile(xs, 1) &&
			b.Mean == Mean(xs) &&
			b.N == len(xs)
	}
	if err := quick.Check(check, quickConfig(t, 300)); err != nil {
		t.Fatal(err)
	}
}

func TestCDF(t *testing.T) {
	c := NewCDF([]float64{1, 2, 2, 3, 10})
	if c.At(0) != 0 {
		t.Fatalf("At(0) = %v", c.At(0))
	}
	if c.At(2) != 0.6 {
		t.Fatalf("At(2) = %v", c.At(2))
	}
	if c.At(10) != 1 || c.At(100) != 1 {
		t.Fatal("upper tail")
	}
	if c.Inverse(0) != 1 || c.Inverse(1) != 10 {
		t.Fatal("inverse extremes")
	}
	if c.Len() != 5 {
		t.Fatal("len")
	}
}

func TestCDFMonotone(t *testing.T) {
	check := func(raw []float64) bool {
		var xs []float64
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				xs = append(xs, v)
			}
		}
		c := NewCDF(xs)
		prev := -1.0
		for _, x := range []float64{-1e9, -1, 0, 1, 1e9} {
			p := c.At(x)
			if p < prev || p < 0 || p > 1 {
				return false
			}
			prev = p
		}
		return true
	}
	if err := quick.Check(check, quickConfig(t, 200)); err != nil {
		t.Fatal(err)
	}
}

func TestBinSeries(t *testing.T) {
	s := NewBinSeries(1.0)
	s.Add(0.2, 5)
	s.Add(0.9, 5)
	s.Add(2.5, 7)
	s.Add(-1, 99) // ignored
	if len(s.Bins) != 3 {
		t.Fatalf("bins %v", s.Bins)
	}
	if s.Bins[0] != 10 || s.Bins[1] != 0 || s.Bins[2] != 7 {
		t.Fatalf("bins %v", s.Bins)
	}
	s.MeanOver(2)
	if s.Bins[0] != 5 {
		t.Fatalf("mean over: %v", s.Bins)
	}
}

func TestRelDiff(t *testing.T) {
	if RelDiff(110, 100) != 10 {
		t.Fatal("positive")
	}
	if RelDiff(90, 100) != -10 {
		t.Fatal("negative")
	}
	if RelDiff(5, 0) != 0 {
		t.Fatal("zero denominator")
	}
}
