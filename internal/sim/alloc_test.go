package sim

import (
	"testing"
	"time"
)

func TestTimerWhenAfterFireAndStop(t *testing.T) {
	loop := NewLoop()
	tm := loop.After(10*time.Millisecond, func() {})
	if got := tm.When(); got != Time(10*time.Millisecond) {
		t.Fatalf("pending When %v", got)
	}
	loop.RunUntilIdle()
	if got := tm.When(); got != Forever {
		t.Fatalf("fired timer When %v, want Forever", got)
	}

	tm2 := loop.After(10*time.Millisecond, func() {})
	tm2.Stop()
	if got := tm2.When(); got != Forever {
		t.Fatalf("stopped timer When %v, want Forever", got)
	}

	var zero Timer
	if zero.When() != Forever || zero.Pending() || zero.Stop() {
		t.Fatal("zero Timer must be inert")
	}
}

// TestStaleHandleIsInert pins the generation check: a handle whose slot
// was recycled for a new event must not observe or cancel the new event.
func TestStaleHandleIsInert(t *testing.T) {
	loop := NewLoop()
	t1 := loop.After(time.Millisecond, func() {})
	loop.RunUntilIdle()

	fired := false
	t2 := loop.After(time.Millisecond, func() { fired = true })
	if t1.Stop() {
		t.Fatal("stale handle cancelled a recycled slot")
	}
	if t1.Pending() {
		t.Fatal("stale handle reports pending")
	}
	loop.RunUntilIdle()
	if !fired {
		t.Fatal("recycled event did not fire")
	}
	_ = t2
}

// TestTimerInertDuringOwnCallback: while an event's callback runs, its
// slot is already released, so the handle reports fired.
func TestTimerInertDuringOwnCallback(t *testing.T) {
	loop := NewLoop()
	var tm Timer
	tm = loop.After(time.Millisecond, func() {
		if tm.Pending() {
			t.Error("timer pending inside its own callback")
		}
		if tm.When() != Forever {
			t.Error("timer When not Forever inside its own callback")
		}
	})
	loop.RunUntilIdle()
}

// TestManyCancellationsKeepPendingExact drives interleaved schedule /
// cancel / fire traffic and checks Pending() (now O(1)) stays exact.
func TestManyCancellationsKeepPendingExact(t *testing.T) {
	loop := NewLoop()
	var timers []Timer
	for i := 0; i < 1000; i++ {
		d := time.Duration(1+i%17) * time.Millisecond
		timers = append(timers, loop.After(d, func() {}))
	}
	cancelled := 0
	for i := 0; i < len(timers); i += 2 {
		if timers[i].Stop() {
			cancelled++
		}
	}
	if got, want := loop.Pending(), len(timers)-cancelled; got != want {
		t.Fatalf("Pending %d, want %d", got, want)
	}
	loop.RunUntilIdle()
	if loop.Pending() != 0 {
		t.Fatalf("Pending %d after drain", loop.Pending())
	}
	if got := loop.Fired(); got != uint64(len(timers)-cancelled) {
		t.Fatalf("fired %d, want %d", got, len(timers)-cancelled)
	}
}

// TestAfterFireAllocationFree is the hot-path guardrail: once the slot
// pool is warm, scheduling and firing an event must not allocate, nor
// take a slot it does not give back. AllocsPerRun divides in integers,
// so a pool that leaked a slot a run, and doubled some ten times over
// the 1,000 runs, would still read 0: the pool's size is held too.
func TestAfterFireAllocationFree(t *testing.T) {
	loop := NewLoop()
	fn := func() {}
	// Warm the slot pool and the wheel's buckets.
	for i := 0; i < 64; i++ {
		loop.After(time.Millisecond, fn)
	}
	loop.RunUntilIdle()

	slots := len(loop.slots)
	allocs := testing.AllocsPerRun(1000, func() {
		loop.After(time.Millisecond, fn)
		loop.RunUntilIdle()
	})
	if allocs != 0 {
		t.Fatalf("After+fire allocates %.1f per run, want 0", allocs)
	}
	if n := len(loop.slots); n != slots {
		t.Fatalf("After+fire grew the slot pool from %d to %d over 1,000 runs", slots, n)
	}
}

// TestScheduleStopAllocationFree: arming and cancelling (the RTO pattern,
// once per ACK) must also be allocation-free, and give its slot back.
func TestScheduleStopAllocationFree(t *testing.T) {
	loop := NewLoop()
	fn := func() {}
	for i := 0; i < 64; i++ {
		loop.After(time.Millisecond, fn)
	}
	loop.RunUntilIdle()

	slots := len(loop.slots)
	allocs := testing.AllocsPerRun(1000, func() {
		tm := loop.After(time.Millisecond, fn)
		tm.Stop()
	})
	if allocs != 0 {
		t.Fatalf("After+Stop allocates %.1f per run, want 0", allocs)
	}
	if n := len(loop.slots); n != slots {
		t.Fatalf("After+Stop grew the slot pool from %d to %d over 1,000 runs", slots, n)
	}
}

// TestEventRecyclingToggle proves the free list is observably inert: the
// same schedule produces identical firing order with recycling on or off.
func TestEventRecyclingToggle(t *testing.T) {
	run := func() []int {
		loop := NewLoop()
		var got []int
		for i := 0; i < 200; i++ {
			i := i
			d := time.Duration(i%13) * time.Millisecond
			tm := loop.After(d, func() { got = append(got, i) })
			if i%5 == 0 {
				tm.Stop()
			}
		}
		loop.RunUntilIdle()
		return got
	}
	defer SetEventRecycling(true)
	SetEventRecycling(true)
	pooled := run()
	SetEventRecycling(false)
	unpooled := run()
	if len(pooled) != len(unpooled) {
		t.Fatalf("lengths differ: %d vs %d", len(pooled), len(unpooled))
	}
	for i := range pooled {
		if pooled[i] != unpooled[i] {
			t.Fatalf("order diverges at %d: %d vs %d", i, pooled[i], unpooled[i])
		}
	}
}
