// Package globalsrc exercises global-source draws (banned) against
// explicitly seeded generators (allowed).
package globalsrc

import (
	"math/rand"
	"testing/quick"
)

func bad() int {
	n := rand.Intn(10)                 // want `rand\.Intn uses the process-global`
	f := rand.Float64()                // want `rand\.Float64 uses the process-global`
	rand.Shuffle(n, func(i, j int) {}) // want `rand\.Shuffle uses the process-global`
	return n + int(f)
}

// badNew: a generator built from an ambient source value is not
// traceable to a seed at the construction site.
func badNew(src rand.Source) *rand.Rand {
	return rand.New(src) // want `rand\.New without an explicit rand\.NewSource`
}

// goodSeeded: rand.New(rand.NewSource(seed)) is a pure function of its
// seed and stays legal (test helpers use it).
func goodSeeded(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed))
}

// goodMethods: draws on an owned generator are fine — the determinism
// question was settled at construction.
func goodMethods(rng *rand.Rand) int {
	return rng.Intn(10)
}

// badQuick: a quick.Config without Rand — or no Config at all — draws
// its cases from a time-seeded generator.
func badQuick(f func(int) bool) {
	_ = quick.Check(f, &quick.Config{MaxCount: 10}) // want `quick\.Config without Rand`
	_ = quick.Check(f, &quick.Config{Rand: nil})    // want `quick\.Config without Rand`
	_ = quick.Check(f, nil)                         // want `quick\.Check with a nil Config`
	_ = quick.CheckEqual(f, f, nil)                 // want `quick\.CheckEqual with a nil Config`
}

// goodQuick: cases drawn from a fixed seed replay.
func goodQuick(f func(int) bool, seed int64) {
	cfg := &quick.Config{MaxCount: 10, Rand: rand.New(rand.NewSource(seed))}
	_ = quick.Check(f, cfg)
}
