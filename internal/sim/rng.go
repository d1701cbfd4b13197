package sim

import "math"

// RNG is a small, fast, deterministic pseudo-random generator
// (SplitMix64 core) used everywhere the simulator needs randomness.
// It is seedable and cheap to fork, so every experiment run is
// reproducible from a single root seed.
type RNG struct {
	state uint64
}

// NewRNG returns a generator seeded with seed. Seed zero is valid.
func NewRNG(seed uint64) *RNG {
	return &RNG{state: seed + 0x9E3779B97F4A7C15}
}

// Fork derives an independent generator from this one. The derived stream
// is a deterministic function of the parent state and label.
func (r *RNG) Fork(label uint64) *RNG {
	return NewRNG(r.Uint64() ^ (label * 0xBF58476D1CE4E5B9))
}

// Uint64 returns the next 64 uniformly distributed bits.
func (r *RNG) Uint64() uint64 {
	r.state += 0x9E3779B97F4A7C15
	z := r.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Float64 returns a uniform float in [0,1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform int in [0,n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Bool returns true with probability p.
func (r *RNG) Bool(p float64) bool {
	return r.Float64() < p
}

// Norm returns a normally distributed float with the given mean and
// standard deviation (Box–Muller).
func (r *RNG) Norm(mean, stddev float64) float64 {
	u1 := r.Float64()
	for u1 == 0 {
		u1 = r.Float64()
	}
	u2 := r.Float64()
	z := math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
	// The conversion rounds the product on its own, so no architecture
	// may fuse it with the sum (TestNoFusedMultiplyAdd).
	return mean + float64(stddev*z)
}

// LogNorm returns a log-normally distributed float parameterized by the
// desired median and a shape sigma (sigma of the underlying normal).
func (r *RNG) LogNorm(median, sigma float64) float64 {
	return median * math.Exp(r.Norm(0, sigma))
}

// Exp returns an exponentially distributed float with the given mean.
func (r *RNG) Exp(mean float64) float64 {
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return -mean * math.Log(u)
}

// Perm returns a random permutation of [0,n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	r.PermInto(p)
	return p
}

// PermInto fills p with a random permutation of [0,len(p)), drawing
// exactly what Perm(len(p)) draws: a caller that keeps its slice from
// one permutation to the next gets Perm's values without its allocation.
func (r *RNG) PermInto(p []int) {
	for i := range p {
		p[i] = i
	}
	for i := len(p) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
}
