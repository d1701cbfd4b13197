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
// the wheel must keep its memory discipline (checkArrays) throughout. A
// loop reusing the slot pool, the seeds, the spares and the scratch
// differs from a fresh one only in capacity.
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
			held := make(map[*bref]holder)
			for _, wl := range o.wls {
				loop := NewLoopOn(&st)
				run := runWorkload(loop, wl, func() {
					if err := checkArrays(&loop.w, held); err != nil {
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
				if err := checkSpares(&st.spares, make(map[*bref]holder)); err != nil {
					t.Fatalf("after %v: %v", wl, err)
				}
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
	if loop.slots != nil || loop.free != nil || loop.w.scratch != nil || loop.w.seeds != nil {
		t.Fatal("the released loop kept its slot pool, free list, scratch or seed arena")
	}
	for i, b := range loop.w.buckets {
		if b != nil {
			t.Fatalf("the released loop kept bucket %d", i)
		}
	}
	for c, stack := range loop.w.spares {
		if stack != nil {
			t.Fatalf("the released loop kept its spares of class %d", c)
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
	// The loop had grown buckets still in use at release (100 events a
	// few µs apart): they join the spares, emptied, each once.
	if len(st.seeds) != seedEntries {
		t.Fatalf("storage holds a seed arena of %d entries, want %d", len(st.seeds), seedEntries)
	}
	spares := 0
	for _, stack := range st.spares {
		spares += len(stack)
	}
	if spares == 0 {
		t.Fatal("the buckets grown at release are not among the storage's spares")
	}
	if err := checkSpares(&st.spares, make(map[*bref]holder)); err != nil {
		t.Fatal(err)
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

// TestBucketGrowthIsRecycledWithinARun: on a fresh NewLoop, fifty
// bursts of 64 events, one after another, each in a level-3 or level-4
// bucket of its own, allocate no more objects than one burst does: each
// bucket grows into the arrays the bucket before it gave back. (A
// burst of 64 outgrows the 16-entry seeds of those levels.) Before the
// spares, where every bucket kept what it grew from a 2-entry seed, one
// burst cost 21 objects and fifty cost 266; with them, 20 and 20.
func TestBucketGrowthIsRecycledWithinARun(t *testing.T) {
	fn := Func(func() {})
	bursts := func(n int) func() {
		return func() {
			loop := NewLoop()
			for i := 0; i < n; i++ {
				base, step := Time(i+1)<<18, Time(1)<<12 // a level-3 bucket of its own
				if i >= 25 {
					base, step = Time(i-24)<<24, Time(1)<<18 // a level-4 bucket of its own
				}
				for j := 0; j < 64; j++ {
					loop.AtCall(base+Time(j)*step, fn)
				}
				loop.RunUntilIdle()
			}
		}
	}
	none := testing.AllocsPerRun(20, bursts(0))
	one := testing.AllocsPerRun(20, bursts(1))
	fifty := testing.AllocsPerRun(20, bursts(50))
	if one <= none {
		t.Fatalf("one burst allocates %.0f objects, an idle loop %.0f: the burst grows nothing", one, none)
	}
	if fifty > one {
		t.Fatalf("fifty bursts allocate %.0f objects, one burst %.0f: growth is not recycled", fifty, one)
	}
	t.Logf("idle loop: %.0f objects; one burst: %.0f; fifty: %.0f", none, one, fifty)
}
