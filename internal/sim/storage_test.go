package sim

import (
	"testing"
	"time"
)

// TestStorageRunsAsFresh runs the eight pinned random workloads one
// after another on one Storage, in three orders, each on a loop taken
// from what the previous loop released: every trace must be the one a
// fresh NewLoop fires. A loop reusing the slot pool, the buckets and the
// scratch differs from a fresh one only in capacity.
func TestStorageRunsAsFresh(t *testing.T) {
	for _, o := range []struct {
		name  string
		seeds []uint64
	}{
		{"forward", []uint64{1, 2, 3, 4, 5, 6, 7, 8}},
		{"reversed", []uint64{8, 7, 6, 5, 4, 3, 2, 1}},
		{"interleaved", []uint64{1, 8, 2, 7, 3, 6, 4, 5, 1, 5}},
	} {
		t.Run(o.name, func(t *testing.T) {
			var st Storage
			for _, seed := range o.seeds {
				loop := NewLoopOn(&st)
				run := runScheduleWorkload(loop, seed)
				if got, want := traceDigest(run.trace, run.fired), workloadDigests[seed-1]; got != want {
					t.Fatalf("seed %d on a used storage: trace digest %#016x, pinned %#016x", seed, got, want)
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
	for i, b := range loop.w.buckets {
		if b != nil {
			t.Fatalf("the released loop kept bucket %d", i)
		}
	}
	if !st.held || cap(st.slots) == 0 || len(st.slots) != 0 || len(st.free) != 0 {
		t.Fatalf("storage holds %d/%d slots, %d free: want an emptied pool", len(st.slots), cap(st.slots), len(st.free))
	}
	for i, s := range st.slots[:cap(st.slots)] {
		if s.h != nil {
			t.Fatalf("handed-over slot %d still holds its callback", i)
		}
	}
	for i, b := range st.buckets {
		if len(b) != 0 {
			t.Fatalf("handed-over bucket %d holds %d entries", i, len(b))
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
// slot, no bucket, no scratch growth — while a fresh loop per run pays
// the seeded buckets and every growth again.
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
	warm := testing.AllocsPerRun(20, func() {
		loop := NewLoopOn(&st)
		schedule(loop)
		loop.ReleaseTo(&st)
	})
	if warm != 1 {
		t.Fatalf("a run on warm storage allocates %.1f objects, want 1 (the Loop)", warm)
	}
	fresh := testing.AllocsPerRun(20, func() { schedule(NewLoop()) })
	if fresh <= warm {
		t.Fatalf("a fresh loop allocates %.1f objects, no more than warm storage's %.1f: the test schedule grows nothing", fresh, warm)
	}
	t.Logf("fresh loop: %.0f objects a run; warm storage: %.0f", fresh, warm)
}
