package sim

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
	"time"
)

// quickConfig is a quick.Config whose cases are drawn from a fixed seed,
// which it logs: a case that fails is the same case on the next run, not
// one the clock chose.
func quickConfig(t *testing.T, maxCount int) *quick.Config {
	const seed = 1
	t.Logf("quick.Check: %d cases from seed %d", maxCount, seed)
	return &quick.Config{MaxCount: maxCount, Rand: rand.New(rand.NewSource(seed))}
}

func TestEventsFireInTimeOrder(t *testing.T) {
	loop := NewLoop()
	var got []int
	loop.After(30*time.Millisecond, func() { got = append(got, 3) })
	loop.After(10*time.Millisecond, func() { got = append(got, 1) })
	loop.After(20*time.Millisecond, func() { got = append(got, 2) })
	loop.RunUntilIdle()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("order %v", got)
	}
	if loop.Now() != Time(30*time.Millisecond) {
		t.Fatalf("clock %v", loop.Now())
	}
}

func TestEqualTimeEventsFIFO(t *testing.T) {
	loop := NewLoop()
	var got []int
	for i := 0; i < 50; i++ {
		i := i
		loop.At(Time(5*time.Millisecond), func() { got = append(got, i) })
	}
	loop.RunUntilIdle()
	for i, v := range got {
		if v != i {
			t.Fatalf("tie-break not FIFO at %d: %v", i, got[:i+1])
		}
	}
}

func TestTimerStop(t *testing.T) {
	loop := NewLoop()
	fired := false
	tm := loop.After(10*time.Millisecond, func() { fired = true })
	if !tm.Pending() {
		t.Fatal("timer should be pending")
	}
	if !tm.Stop() {
		t.Fatal("first Stop should report true")
	}
	if tm.Stop() {
		t.Fatal("second Stop should report false")
	}
	loop.RunUntilIdle()
	if fired {
		t.Fatal("cancelled timer fired")
	}
}

func TestRunDeadlineStopsClock(t *testing.T) {
	loop := NewLoop()
	fired := false
	loop.After(100*time.Millisecond, func() { fired = true })
	end := loop.Run(Time(50 * time.Millisecond))
	if fired {
		t.Fatal("event beyond deadline fired")
	}
	if end != Time(50*time.Millisecond) {
		t.Fatalf("clock %v, want 50ms", end)
	}
	// Resuming runs the remaining event.
	loop.RunUntilIdle()
	if !fired {
		t.Fatal("event lost after deadline resume")
	}
}

func TestNestedScheduling(t *testing.T) {
	loop := NewLoop()
	depth := 0
	var recurse func()
	recurse = func() {
		depth++
		if depth < 10 {
			loop.After(time.Millisecond, recurse)
		}
	}
	loop.After(time.Millisecond, recurse)
	loop.RunUntilIdle()
	if depth != 10 {
		t.Fatalf("depth %d", depth)
	}
	if loop.Now() != Time(10*time.Millisecond) {
		t.Fatalf("clock %v", loop.Now())
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	loop := NewLoop()
	loop.After(10*time.Millisecond, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		loop.At(Time(time.Millisecond), func() {})
	})
	loop.RunUntilIdle()
}

func TestStopHaltsLoop(t *testing.T) {
	loop := NewLoop()
	n := 0
	for i := 1; i <= 10; i++ {
		loop.After(time.Duration(i)*time.Millisecond, func() {
			n++
			if n == 3 {
				loop.Stop()
			}
		})
	}
	loop.RunUntilIdle()
	if n != 3 {
		t.Fatalf("ran %d events after Stop", n)
	}
}

func TestPendingCount(t *testing.T) {
	loop := NewLoop()
	t1 := loop.After(time.Millisecond, func() {})
	loop.After(2*time.Millisecond, func() {})
	if loop.Pending() != 2 {
		t.Fatalf("pending %d", loop.Pending())
	}
	t1.Stop()
	if loop.Pending() != 1 {
		t.Fatalf("pending after cancel %d", loop.Pending())
	}
}

func TestTimeArithmetic(t *testing.T) {
	a := Time(1500 * time.Millisecond)
	if a.Seconds() != 1.5 {
		t.Fatalf("Seconds %v", a.Seconds())
	}
	if a.Milliseconds() != 1500 {
		t.Fatalf("Milliseconds %v", a.Milliseconds())
	}
	if a.Add(500*time.Millisecond) != Time(2*time.Second) {
		t.Fatalf("Add")
	}
	if a.Sub(Time(time.Second)) != 500*time.Millisecond {
		t.Fatalf("Sub")
	}
	if Forever.String() != "forever" {
		t.Fatalf("Forever string %q", Forever.String())
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(12345), NewRNG(12345)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("divergence at %d", i)
		}
	}
	c := NewRNG(12346)
	same := 0
	a = NewRNG(12345)
	for i := 0; i < 1000; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds collide %d/1000 times", same)
	}
}

func TestRNGForkIndependence(t *testing.T) {
	parent := NewRNG(7)
	f1 := parent.Fork(1)
	f2 := parent.Fork(1) // same label after state advanced — still distinct
	if f1.Uint64() == f2.Uint64() {
		t.Fatal("sequential forks identical")
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(99)
	var sum float64
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
		sum += f
	}
	if mean := sum / 10000; mean < 0.47 || mean > 0.53 {
		t.Fatalf("uniform mean implausible: %v", mean)
	}
}

func TestRNGIntn(t *testing.T) {
	r := NewRNG(5)
	seen := make(map[int]bool)
	for i := 0; i < 1000; i++ {
		v := r.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn out of range: %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 7 {
		t.Fatalf("Intn missed values: %v", seen)
	}
}

func TestRNGIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for Intn(0)")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestRNGNorm(t *testing.T) {
	r := NewRNG(11)
	var sum, ss float64
	const n = 20000
	for i := 0; i < n; i++ {
		v := r.Norm(10, 2)
		sum += v
		ss += (v - 10) * (v - 10)
	}
	mean := sum / n
	sd := math.Sqrt(ss / n)
	if mean < 9.9 || mean > 10.1 {
		t.Fatalf("norm mean %v", mean)
	}
	if sd < 1.9 || sd > 2.1 {
		t.Fatalf("norm sd %v", sd)
	}
}

func TestRNGLogNormMedian(t *testing.T) {
	r := NewRNG(13)
	const n = 20001
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = r.LogNorm(50, 0.5)
	}
	// Median should be near 50; count how many fall below.
	below := 0
	for _, v := range vals {
		if v < 50 {
			below++
		}
		if v <= 0 {
			t.Fatalf("lognormal non-positive: %v", v)
		}
	}
	frac := float64(below) / n
	if frac < 0.47 || frac > 0.53 {
		t.Fatalf("median fraction %v", frac)
	}
}

func TestRNGExpMean(t *testing.T) {
	r := NewRNG(17)
	var sum float64
	const n = 20000
	for i := 0; i < n; i++ {
		sum += r.Exp(30)
	}
	if mean := sum / n; mean < 28.5 || mean > 31.5 {
		t.Fatalf("exp mean %v", mean)
	}
}

func TestRNGPermIsPermutation(t *testing.T) {
	check := func(seed uint64, n uint8) bool {
		size := int(n%50) + 1
		p := NewRNG(seed).Perm(size)
		if len(p) != size {
			return false
		}
		seen := make([]bool, size)
		for _, v := range p {
			if v < 0 || v >= size || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(check, quickConfig(t, 100)); err != nil {
		t.Fatal(err)
	}
}

// TestPermIntoMatchesPerm holds PermInto, on a slice left dirty by an
// earlier permutation, to Perm and to the Fisher–Yates loop Perm ran
// before it was written over PermInto: the same permutation, and the
// RNG left where Perm leaves it (the next draw is equal).
func TestPermIntoMatchesPerm(t *testing.T) {
	reference := func(r *RNG, n int) []int {
		p := make([]int, n)
		for i := range p {
			p[i] = i
		}
		for i := n - 1; i > 0; i-- {
			j := r.Intn(i + 1)
			p[i], p[j] = p[j], p[i]
		}
		return p
	}
	scratch := NewRNG(1).Perm(400)
	for _, n := range []int{0, 1, 2, 7, 128, 323} {
		for seed := uint64(1); seed <= 4; seed++ {
			a, b, c := NewRNG(seed), NewRNG(seed), NewRNG(seed)
			want, perm := reference(a, n), b.Perm(n)
			got := scratch[:n]
			c.PermInto(got)
			if !slices.Equal(got, want) || !slices.Equal(perm, want) {
				t.Fatalf("n=%d seed %d: PermInto %v, Perm %v, reference %v", n, seed, got, perm, want)
			}
			if x, y, z := a.Uint64(), b.Uint64(), c.Uint64(); x != z || y != z {
				t.Fatalf("n=%d seed %d: next draw after reference %d, Perm %d, PermInto %d", n, seed, x, y, z)
			}
		}
	}
}

func TestRNGBoolProbability(t *testing.T) {
	r := NewRNG(23)
	hits := 0
	for i := 0; i < 10000; i++ {
		if r.Bool(0.2) {
			hits++
		}
	}
	if hits < 1800 || hits > 2200 {
		t.Fatalf("Bool(0.2) hit %d/10000", hits)
	}
}
