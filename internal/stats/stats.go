// Package stats provides the summary statistics the paper's figures use:
// box-plot five-number summaries (Figures 3 and 16), means with 95%
// confidence intervals (Figure 4), empirical CDFs (Figure 14),
// per-second binned series (Figure 9) and relative differences
// (Figure 15).
//
// Every product that meets a sum is rounded on its own, float64(x*y),
// so no architecture fuses the two and every summary is the same bits
// on arm64 as on amd64 (sim's TestNoFusedMultiplyAdd).
package stats

import (
	"math"
	"sort"
)

// Mean returns the arithmetic mean (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// StdDev returns the sample standard deviation.
func StdDev(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	var ss float64
	for _, x := range xs {
		d := x - m
		ss += float64(d * d)
	}
	return math.Sqrt(ss / float64(len(xs)-1))
}

// CI95 returns the half-width of the 95% confidence interval of the mean
// (normal approximation).
func CI95(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	return 1.96 * StdDev(xs) / math.Sqrt(float64(len(xs)))
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1) by linear interpolation.
// The input need not be sorted.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantileSorted(s, q)
}

// quantileSorted is Quantile over an already-sorted non-empty slice.
func quantileSorted(s []float64, q float64) float64 {
	if q <= 0 {
		return s[0]
	}
	if q >= 1 {
		return s[len(s)-1]
	}
	pos := float64(q * float64(len(s)-1))
	lo := int(pos)
	frac := pos - float64(lo)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return float64(s[lo]*(1-frac)) + float64(s[lo+1]*frac)
}

// Quantiles returns the q-quantile for each requested q, copying and
// sorting the input once rather than once per quantile. Each result is
// bit-identical to the corresponding Quantile(xs, q) call.
func Quantiles(xs []float64, qs ...float64) []float64 {
	out := make([]float64, len(qs))
	if len(xs) == 0 {
		return out
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	for i, q := range qs {
		out[i] = quantileSorted(s, q)
	}
	return out
}

// Median returns the 0.5 quantile.
func Median(xs []float64) float64 { return Quantile(xs, 0.5) }

// BoxPlot is a five-number summary plus mean, the exact contents of each
// box in Figures 3 and 16.
type BoxPlot struct {
	Min, Q1, Median, Q3, Max, Mean float64
	N                              int
}

// Box computes the summary of xs, copying and sorting the input once
// rather than once per quantile.
func Box(xs []float64) BoxPlot {
	if len(xs) == 0 {
		return BoxPlot{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return BoxPlot{
		Min:    s[0],
		Q1:     quantileSorted(s, 0.25),
		Median: quantileSorted(s, 0.5),
		Q3:     quantileSorted(s, 0.75),
		Max:    s[len(s)-1],
		Mean:   Mean(xs), // original order: bit-identical to the pre-sort behavior
		N:      len(s),
	}
}

// CDF is an empirical distribution function.
type CDF struct {
	sorted []float64
}

// NewCDF builds an empirical CDF over xs.
func NewCDF(xs []float64) *CDF {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return &CDF{sorted: s}
}

// At returns P(X ≤ x).
func (c *CDF) At(x float64) float64 {
	if len(c.sorted) == 0 {
		return 0
	}
	i := sort.SearchFloat64s(c.sorted, x)
	for i < len(c.sorted) && c.sorted[i] <= x {
		i++
	}
	return float64(i) / float64(len(c.sorted))
}

// Inverse returns the p-quantile of the distribution.
func (c *CDF) Inverse(p float64) float64 {
	if len(c.sorted) == 0 {
		return 0
	}
	return quantileSorted(c.sorted, p)
}

// Len reports the sample count.
func (c *CDF) Len() int { return len(c.sorted) }

// BinSeries accumulates values into fixed-width bins indexed from zero —
// Figure 9's per-second transferred-bytes series.
type BinSeries struct {
	Width float64
	Bins  []float64
}

// NewBinSeries creates a series with the given bin width.
func NewBinSeries(width float64) *BinSeries { return &BinSeries{Width: width} }

// Add accumulates v into the bin containing position x (x ≥ 0).
func (s *BinSeries) Add(x, v float64) {
	if x < 0 {
		return
	}
	i := int(x / s.Width)
	for len(s.Bins) <= i {
		s.Bins = append(s.Bins, 0)
	}
	s.Bins[i] += v
}

// MeanOver divides every bin by n (averaging across n runs).
func (s *BinSeries) MeanOver(n int) {
	if n <= 0 {
		return
	}
	for i := range s.Bins {
		s.Bins[i] /= float64(n)
	}
}

// RelDiff returns (a-b)/b as a percentage, guarding b == 0.
func RelDiff(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return (a - b) / b * 100
}
