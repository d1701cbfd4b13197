// Streaming, mergeable accumulators for population-scale sweeps. Each
// type consumes one observation at a time in O(1) memory and supports a
// deterministic Merge, so per-worker shards folded in seed order and
// merged in shard-index order produce bit-for-bit the same state as a
// serial fold — regardless of which shard finished first.
//
// Moments/QuantileSketch/Hist are the streaming counterparts of
// Mean/CI95, Quantile and CDF: they trade the sample vector for fixed
// state, which is what lets `spdysim -exp all -runs 1000` run at flat
// memory. They are NOT bit-identical to their vector-based counterparts
// (float addition is not associative), which is why the experiments that
// reproduce the paper's figures keep exact per-run vectors and only the
// population-scale paths use these.
package stats

import (
	"math"
	"sort"
)

// Moments maintains running count/mean/variance via Welford's update,
// with the Chan et al. pairwise rule for Merge.
type Moments struct {
	n    uint64
	mean float64
	m2   float64
}

// Add folds one observation in.
func (m *Moments) Add(x float64) {
	m.n++
	delta := x - m.mean
	m.mean += delta / float64(m.n)
	m.m2 += float64(delta * (x - m.mean))
}

// Merge folds another accumulator in. Merging shard states in a fixed
// order is deterministic; the result is mathematically (not bitwise)
// equal to folding all samples into one accumulator.
func (m *Moments) Merge(o *Moments) {
	if o.n == 0 {
		return
	}
	if m.n == 0 {
		*m = *o
		return
	}
	n1, n2 := float64(m.n), float64(o.n)
	n := n1 + n2
	delta := o.mean - m.mean
	m.mean += delta * n2 / n
	m.m2 += o.m2 + delta*delta*n1*n2/n
	m.n += o.n
}

// N reports the observation count.
func (m *Moments) N() int { return int(m.n) }

// Mean returns the running mean (0 for empty input).
func (m *Moments) Mean() float64 { return m.mean }

// Variance returns the sample variance (0 for n < 2).
func (m *Moments) Variance() float64 {
	if m.n < 2 {
		return 0
	}
	return m.m2 / float64(m.n-1)
}

// StdDev returns the sample standard deviation.
func (m *Moments) StdDev() float64 { return math.Sqrt(m.Variance()) }

// CI95 returns the half-width of the 95% confidence interval of the
// mean, matching the semantics of the package-level CI95 (0 for n < 2).
func (m *Moments) CI95() float64 {
	if m.n < 2 {
		return 0
	}
	return 1.96 * m.StdDev() / math.Sqrt(float64(m.n))
}

const (
	// sketchExactMax is the sample-count threshold below which the sketch
	// keeps raw samples: quantile queries sort a copy and interpolate, so
	// small-`runs` sweeps report bit-identically to Quantile().
	sketchExactMax = 2048
	// sketchBins is the fixed resolution after collapse; quantile error
	// is bounded by one bin width, O((max-min)/sketchBins).
	sketchBins = 512
)

// QuantileSketch estimates quantiles in bounded memory. Below
// sketchExactMax samples it stores them exactly; beyond that it
// collapses into a fixed-size histogram over [min, max] whose range
// doubles (pair-merging bins) whenever a sample lands outside it.
type QuantileSketch struct {
	exact    []float64 // raw samples while small; nil once collapsed
	n        uint64
	min, max float64
	lo       float64  // inclusive lower bound of bin 0
	width    float64  // bin width
	bins     []uint64 // nil while exact
}

// NewQuantileSketch returns an empty sketch.
func NewQuantileSketch() *QuantileSketch { return &QuantileSketch{} }

// N reports the observation count.
func (s *QuantileSketch) N() int { return int(s.n) }

// Exact reports whether the sketch still holds raw samples (queries are
// bit-identical to Quantile over the same values).
func (s *QuantileSketch) Exact() bool { return s.bins == nil }

// Min and Max are exact regardless of mode.
func (s *QuantileSketch) Min() float64 { return s.min }
func (s *QuantileSketch) Max() float64 { return s.max }

// Add folds one observation in.
func (s *QuantileSketch) Add(x float64) {
	if s.n == 0 || x < s.min {
		s.min = x
	}
	if s.n == 0 || x > s.max {
		s.max = x
	}
	s.n++
	if s.bins == nil {
		s.exact = append(s.exact, x)
		if len(s.exact) > sketchExactMax {
			s.collapse()
		}
		return
	}
	s.insert(x)
}

// collapse switches from exact storage to the fixed-bin histogram.
func (s *QuantileSketch) collapse() {
	lo, hi := s.min, s.max
	if hi <= lo {
		hi = lo + 1 // degenerate (constant) input still needs a range
	}
	s.lo = lo
	// Divide by bins-1 so the current max falls inside the last bin
	// rather than on the exclusive upper edge.
	s.width = (hi - lo) / float64(sketchBins-1)
	s.bins = make([]uint64, sketchBins)
	for _, x := range s.exact {
		s.insert(x)
	}
	s.exact = nil
}

// insert counts x into its bin, doubling the covered range as needed.
func (s *QuantileSketch) insert(x float64) {
	for x < s.lo {
		s.growDown()
	}
	for x >= s.lo+float64(s.width*float64(sketchBins)) {
		s.growUp()
	}
	i := int((x - s.lo) / s.width)
	if i >= sketchBins {
		i = sketchBins - 1
	}
	s.bins[i]++
}

// growUp doubles the range upward: adjacent bin pairs merge into the
// lower half and the upper half opens up empty.
func (s *QuantileSketch) growUp() {
	next := make([]uint64, sketchBins)
	for i := 0; i < sketchBins/2; i++ {
		next[i] = s.bins[2*i] + s.bins[2*i+1]
	}
	s.bins = next
	s.width *= 2
}

// growDown doubles the range downward: existing bins pair-merge into the
// upper half and the lower half opens up empty below the old lo.
func (s *QuantileSketch) growDown() {
	next := make([]uint64, sketchBins)
	for i := 0; i < sketchBins/2; i++ {
		next[sketchBins/2+i] = s.bins[2*i] + s.bins[2*i+1]
	}
	oldRange := float64(s.width * float64(sketchBins))
	s.bins = next
	s.width *= 2
	s.lo -= oldRange
}

// Quantile returns the estimated q-quantile. Exact mode matches
// Quantile() bit-for-bit; sketch mode interpolates within the covering
// bin and clamps to the exact [min, max].
func (s *QuantileSketch) Quantile(q float64) float64 {
	if s.n == 0 {
		return 0
	}
	if s.bins == nil {
		c := append([]float64(nil), s.exact...)
		sort.Float64s(c)
		return quantileSorted(c, q)
	}
	if q <= 0 {
		return s.min
	}
	if q >= 1 {
		return s.max
	}
	rank := float64(q * float64(s.n-1))
	var cum float64
	for i, c := range s.bins {
		if c == 0 {
			continue
		}
		fc := float64(c)
		if rank < cum+fc {
			v := s.lo + float64(float64(i)*s.width) + s.width*(rank-cum)/fc
			if v < s.min {
				v = s.min
			}
			if v > s.max {
				v = s.max
			}
			return v
		}
		cum += fc
	}
	return s.max
}

// Merge folds another sketch in. If both sides are exact and the union
// still fits the exact threshold, samples concatenate (receiver first),
// preserving the bit-exact small-N path; otherwise the receiver collapses
// and the argument's mass is re-inserted (exact samples directly, sketch
// bins at their midpoints). Deterministic for a fixed merge order.
func (s *QuantileSketch) Merge(o *QuantileSketch) {
	if o.n == 0 {
		return
	}
	if s.n == 0 {
		s.n = o.n
		s.min, s.max = o.min, o.max
		s.lo, s.width = o.lo, o.width
		s.exact = append([]float64(nil), o.exact...)
		if o.bins != nil {
			s.bins = append([]uint64(nil), o.bins...)
		}
		return
	}
	if o.min < s.min {
		s.min = o.min
	}
	if o.max > s.max {
		s.max = o.max
	}
	if s.bins == nil && o.bins == nil && len(s.exact)+len(o.exact) <= sketchExactMax {
		s.exact = append(s.exact, o.exact...)
		s.n += o.n
		return
	}
	if s.bins == nil {
		s.collapse()
	}
	if o.bins == nil {
		for _, x := range o.exact {
			s.insert(x)
		}
		s.n += o.n
		return
	}
	for i, c := range o.bins {
		if c == 0 {
			continue
		}
		mid := o.lo + float64((float64(i)+0.5)*o.width)
		for mid < s.lo {
			s.growDown()
		}
		for mid >= s.lo+float64(s.width*float64(sketchBins)) {
			s.growUp()
		}
		j := int((mid - s.lo) / s.width)
		if j >= sketchBins {
			j = sketchBins - 1
		}
		s.bins[j] += c
	}
	s.n += o.n
}

// Hist is a streaming fixed-width histogram — the mergeable counterpart
// of CDF for known-scale quantities (e.g. page load times in seconds).
type Hist struct {
	width float64
	bins  []uint64
	n     uint64
}

// NewHist creates a histogram with the given bin width.
func NewHist(width float64) *Hist {
	if width <= 0 {
		width = 1
	}
	return &Hist{width: width}
}

// Width reports the bin width.
func (h *Hist) Width() float64 { return h.width }

// N reports the observation count.
func (h *Hist) N() int { return int(h.n) }

// Add counts x into its bin (negative values count into bin 0).
func (h *Hist) Add(x float64) {
	i := 0
	if x > 0 {
		i = int(x / h.width)
	}
	for len(h.bins) <= i {
		h.bins = append(h.bins, 0)
	}
	h.bins[i]++
	h.n++
}

// Merge folds another histogram in; widths must match.
func (h *Hist) Merge(o *Hist) {
	if o.width != h.width {
		panic("stats: merging histograms of different widths")
	}
	for len(h.bins) < len(o.bins) {
		h.bins = append(h.bins, 0)
	}
	for i, c := range o.bins {
		h.bins[i] += c
	}
	h.n += o.n
}

// At returns the estimated P(X ≤ x): whole bins below x plus a uniform
// fraction of the bin containing x.
func (h *Hist) At(x float64) float64 {
	if h.n == 0 || x < 0 {
		return 0
	}
	i := int(x / h.width)
	var cum uint64
	for j := 0; j < i && j < len(h.bins); j++ {
		cum += h.bins[j]
	}
	est := float64(cum)
	if i < len(h.bins) {
		est += float64((x/h.width - float64(i)) * float64(h.bins[i]))
	}
	if p := est / float64(h.n); p < 1 {
		return p
	}
	return 1
}

// Bins returns the bin counts (shared slice; callers must not mutate).
func (h *Hist) Bins() []uint64 { return h.bins }
