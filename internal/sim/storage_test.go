package sim

import (
	"slices"
	"testing"
	"time"
)

// TestStorageRunsAsFresh runs the sixteen pinned random workloads (the
// eight plain ones and the eight with bursts) one after another on one
// Storage, in three orders, each on a loop taken from what the previous
// loop released: every trace must be the one a fresh NewLoop fires, and
// the wheel's lists must hold together (checkLists) throughout. A loop
// reusing the slot pool and the scratch differs from a fresh one only in
// capacity.
func TestStorageRunsAsFresh(t *testing.T) {
	var forward []workload
	for _, bursts := range []bool{false, true} {
		for seed := uint64(1); seed <= 8; seed++ {
			forward = append(forward, workload{seed: seed, bursts: bursts})
		}
	}
	reversed := slices.Clone(forward)
	slices.Reverse(reversed)
	var interleaved []workload // plain and bursts alternating, seeds from both ends
	for i := 0; i < 8; i++ {
		interleaved = append(interleaved, forward[i], reversed[i])
	}
	for _, o := range []struct {
		name string
		wls  []workload
	}{{"forward", forward}, {"reversed", reversed}, {"interleaved", interleaved}} {
		t.Run(o.name, func(t *testing.T) {
			var st Storage
			for _, wl := range o.wls {
				loop := NewLoopOn(&st)
				run := runWorkload(loop, wl, func() {
					if err := checkLists(loop); err != nil {
						t.Fatalf("%v on a used storage, at %v: %v", wl, loop.Now(), err)
					}
				})
				want := workloadDigests[wl.seed-1]
				if wl.bursts {
					want = burstDigests[wl.seed-1]
				}
				if got := traceDigest(run.trace, run.fired); got != want {
					t.Fatalf("%v on a used storage: trace digest %#016x, pinned %#016x", wl, got, want)
				}
				loop.ReleaseTo(&st)
			}
		})
	}
}

// TestReleaseToKeepsNothing: after ReleaseTo the loop holds no slice of
// what it handed over, the handed-over slots hold no callback, stale
// handles are inert, and the loop still schedules (on fresh memory).
func TestReleaseToKeepsNothing(t *testing.T) {
	loop := NewLoop()
	stale := loop.At(1<<30, func() { t.Error("released event fired") })
	loop.At(1<<40, func() { t.Error("released overflow event fired") })
	for i := 0; i < 100; i++ {
		loop.At(Time(i*1000), func() {})
	}
	loop.Run(50_000)
	var st Storage
	loop.ReleaseTo(&st)
	if loop.slots != nil || loop.free != nil || loop.w.scratch != nil {
		t.Fatal("the released loop kept its slot pool, free list or scratch")
	}
	for b, h := range loop.w.head {
		if h != nilSlot {
			t.Fatalf("the released loop's bucket %d still lists slot %d", b, h)
		}
	}
	if cap(st.slots) == 0 || len(st.slots) != 0 || len(st.free) != 0 {
		t.Fatalf("storage holds %d/%d slots, %d free: want an emptied pool", len(st.slots), cap(st.slots), len(st.free))
	}
	for i, s := range st.slots[:cap(st.slots)] {
		if s.h != nil {
			t.Fatalf("handed-over slot %d still holds its callback", i)
		}
	}
	if stale.Pending() || stale.Stop() || loop.Pending() != 0 {
		t.Fatal("a handle from before ReleaseTo is live")
	}
	ok := false
	loop.At(loop.Now()+1, func() { ok = true })
	loop.RunUntilIdle()
	if !ok {
		t.Fatal("loop unusable after ReleaseTo")
	}
}

// TestReleaseAllocationFree: releasing a used loop allocates nothing;
// the wheel it leaves has no backing until something is scheduled.
func TestReleaseAllocationFree(t *testing.T) {
	loop := NewLoop()
	for i := 0; i < 64; i++ {
		loop.After(time.Duration(i)*time.Millisecond, func() {})
	}
	loop.Run(10 * Millisecond)
	if allocs := testing.AllocsPerRun(100, loop.Release); allocs != 0 {
		t.Fatalf("Release allocates %.1f per call, want 0", allocs)
	}
}

// TestWarmStorageAllocationFree: a schedule repeated on the storage its
// previous run released allocates the Loop value and nothing else — no
// slot and no scratch growth — while a fresh loop per run pays the
// scratch and every growth of the slot pool again.
func TestWarmStorageAllocationFree(t *testing.T) {
	fn := Func(func() {})
	schedule := func(loop *Loop) {
		for i := 0; i < 300; i++ {
			// Dense ticks, shared ticks and deep levels.
			loop.AtCall(Time(i%7)*Millisecond+Time(i%3)*Second, fn)
		}
		loop.RunUntilIdle()
	}
	var st Storage // AllocsPerRun's warm-up run fills it
	var last *Loop // a run's loop outlives the call that made it, so it is a heap object
	warm := testing.AllocsPerRun(20, func() {
		loop := NewLoopOn(&st)
		schedule(loop)
		loop.ReleaseTo(&st)
		last = loop
	})
	_ = last
	if warm != 1 {
		t.Fatalf("a run on warm storage allocates %.1f objects, want 1 (the Loop)", warm)
	}
	fresh := testing.AllocsPerRun(20, func() { schedule(NewLoop()) })
	if fresh <= warm {
		t.Fatalf("a fresh loop allocates %.1f objects, no more than warm storage's %.1f: the test schedule grows nothing", fresh, warm)
	}
	t.Logf("fresh loop: %.0f objects a run; warm storage: %.0f", fresh, warm)
}

// TestCrowdedBucketAllocatesNothing: on a fresh NewLoop, 64 events in
// one level-3 bucket allocate exactly as many objects as 64 events one
// to a bucket, and fifty such crowded buckets, one after another, as
// many as one. A bucket is a list through its events' slots, so however
// many events crowd it, only the slot pool grows, and each burst reuses
// the slots the one before it freed.
func TestCrowdedBucketAllocatesNothing(t *testing.T) {
	fn := Func(func() {})
	bursts := func(n int, at func(i, j int) Time) float64 {
		return testing.AllocsPerRun(20, func() {
			loop := NewLoop()
			for i := 0; i < n; i++ {
				for j := 0; j < 64; j++ {
					loop.AtCall(at(i, j), fn)
				}
				loop.RunUntilIdle()
			}
		})
	}
	// Burst i fills level 3's slot i+1, 256 µs wide, which splits as it
	// drains.
	crowded := func(i, j int) Time { return Time(i+1)<<18 + Time(j)<<12 }
	// Level 3's slots 1 to 63, then level 4's slot 1.
	spread := func(_, j int) Time { return Time(j+1) << 18 }
	one := bursts(1, crowded)
	if s := bursts(1, spread); one != s {
		t.Fatalf("64 events in one bucket allocate %.0f objects, 64 one to a bucket %.0f", one, s)
	}
	if fifty := bursts(50, crowded); fifty != one {
		t.Fatalf("fifty crowded buckets allocate %.0f objects, one %.0f: the slots are not reused", fifty, one)
	}
	t.Logf("64 events, crowded or spread, and fifty crowded bursts: %.0f objects", one)
}
