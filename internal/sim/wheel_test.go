package sim

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"strings"
	"testing"
	"time"
)

// onWheel runs fn on a fresh NewLoop under the subtest "wheel", the
// name these edge cases have always been pinned under.
func onWheel(t *testing.T, fn func(t *testing.T, loop *Loop)) {
	t.Helper()
	t.Run("wheel", func(t *testing.T) { fn(t, NewLoop()) })
}

// TestWheelStopThenFireSameBatch schedules several events at one
// timestamp and has the first fired callback stop a later one in the
// same batch. The stopped event must not fire even though it was already
// detached into the in-flight batch when Stop ran.
func TestWheelStopThenFireSameBatch(t *testing.T) {
	onWheel(t, func(t *testing.T, loop *Loop) {
		var fired []int
		var victim Timer
		loop.At(100, func() {
			fired = append(fired, 0)
			if !victim.Stop() {
				t.Error("Stop of same-batch pending timer reported false")
			}
		})
		victim = loop.At(100, func() { fired = append(fired, 1) })
		loop.At(100, func() { fired = append(fired, 2) })
		loop.RunUntilIdle()
		want := []int{0, 2}
		if fmt.Sprint(fired) != fmt.Sprint(want) {
			t.Fatalf("fired %v, want %v", fired, want)
		}
		if got := loop.Fired(); got != 2 {
			t.Fatalf("Fired() = %d, want 2", got)
		}
		if loop.Pending() != 0 {
			t.Fatalf("Pending() = %d after idle, want 0", loop.Pending())
		}
	})
}

// TestWheelRescheduleInCallback has a callback stop its sibling and
// reschedule the same logical work later, including rescheduling at the
// current instant (which must join the tail of the running batch).
func TestWheelRescheduleInCallback(t *testing.T) {
	onWheel(t, func(t *testing.T, loop *Loop) {
		var trace []string
		var later Timer
		loop.At(50, func() {
			trace = append(trace, "first@"+loop.Now().String())
			later.Stop()
			// Reschedule at the same instant: must fire within this
			// same tick, after already-queued same-time events.
			loop.At(50, func() { trace = append(trace, "requeued@"+loop.Now().String()) })
			loop.At(200, func() { trace = append(trace, "moved@"+loop.Now().String()) })
		})
		later = loop.At(120, func() { trace = append(trace, "later") })
		loop.At(50, func() { trace = append(trace, "second@"+loop.Now().String()) })
		loop.RunUntilIdle()
		want := "[first@50ns second@50ns requeued@50ns moved@200ns]"
		if got := fmt.Sprint(trace); got != want {
			t.Fatalf("trace %s, want %s", got, want)
		}
	})
}

// TestWheelSameTimestampSeqAcrossBuckets pins (time, seq) ordering when
// equal-time events enter the wheel through different buckets: one
// scheduled far ahead (landing in a high level, later split down) and
// one scheduled for the same instant from a callback running just before
// it (landing directly in level 0). Sequence order must still win.
func TestWheelSameTimestampSeqAcrossBuckets(t *testing.T) {
	onWheel(t, func(t *testing.T, loop *Loop) {
		const target = Time(1 << 20) // well beyond level 0's 64 ns span
		var fired []string
		// seq 1: placed from t=0, lands in a high-level bucket.
		loop.At(target, func() { fired = append(fired, "early-sched") })
		// seq 2: a callback one tick before target schedules for target;
		// by then cur is close enough that it lands in a low bucket.
		loop.At(target-1, func() {
			loop.At(target, func() { fired = append(fired, "late-sched") })
		})
		loop.RunUntilIdle()
		want := "[early-sched late-sched]"
		if got := fmt.Sprint(fired); got != want {
			t.Fatalf("fired %s, want %s (seq order must survive bucket geometry)", got, want)
		}
	})
}

// TestWheelForeverNeverCascades parks an event at t=Forever behind a
// normal workload. The sentinel must sit in the overflow bucket without
// ever being cascaded or blocking progress, and a deadline-bounded Run
// must not fire it.
func TestWheelForeverNeverCascades(t *testing.T) {
	onWheel(t, func(t *testing.T, loop *Loop) {
		foreverFired := false
		tm := loop.At(Forever, func() { foreverFired = true })
		count := 0
		for i := 1; i <= 100; i++ {
			loop.At(Time(i)*Time(time.Millisecond), func() { count++ })
		}
		loop.Run(Time(200 * time.Millisecond))
		if count != 100 {
			t.Fatalf("fired %d normal events, want 100", count)
		}
		if foreverFired {
			t.Fatal("Forever-scheduled event fired during bounded run")
		}
		if !tm.Pending() {
			t.Fatal("Forever-scheduled event no longer pending")
		}
		if got := loop.Now(); got != Time(200*time.Millisecond) {
			t.Fatalf("Now() = %v, want 200ms", got)
		}
		// An unbounded run does fire it — Forever is a timestamp, not a
		// tombstone.
		loop.RunUntilIdle()
		if !foreverFired {
			t.Fatal("Forever-scheduled event never fired under RunUntilIdle")
		}
		if got := loop.Now(); got != Forever {
			t.Fatalf("Now() = %v after firing Forever event, want forever", got)
		}
	})
}

// TestWheelNearForever fires events in the last wheel window before
// Forever, Forever itself among them: with the overflow empty, the
// Forever sentinel of its minimum ties an event at Forever in a higher
// level, which must not be taken for an overflow event to pull.
func TestWheelNearForever(t *testing.T) {
	onWheel(t, func(t *testing.T, loop *Loop) {
		var fired []Time
		for _, at := range []Time{Forever, Forever - 1000, Forever - 1<<20} {
			loop.At(at, func() { fired = append(fired, loop.Now()) })
		}
		loop.RunUntilIdle()
		want := fmt.Sprint([]Time{Forever - 1<<20, Forever - 1000, Forever})
		if got := fmt.Sprint(fired); got != want {
			t.Fatalf("fired at %s, want %s", got, want)
		}
	})
}

// TestWheelDeadlineResume runs to a deadline that lands between events,
// asserts the clock parks exactly there, then resumes and checks nothing
// was lost or reordered by the pause.
func TestWheelDeadlineResume(t *testing.T) {
	onWheel(t, func(t *testing.T, loop *Loop) {
		var fired []Time
		for _, at := range []Time{10, 1000, 70_000, 5_000_000} {
			at := at
			loop.At(at, func() { fired = append(fired, at) })
		}
		loop.Run(500)
		if got := fmt.Sprint(fired); got != "[10ns]" {
			t.Fatalf("fired %s before deadline 500, want [10ns]", got)
		}
		if loop.Now() != 500 {
			t.Fatalf("Now() = %v at deadline, want 500ns", loop.Now())
		}
		// Schedule more work from the paused state, below and above the
		// already-queued horizon.
		loop.At(600, func() { fired = append(fired, 600) })
		loop.RunUntilIdle()
		want := "[10ns 600ns 1µs 70µs 5ms]"
		if got := fmt.Sprint(fired); got != want {
			t.Fatalf("fired %s, want %s", got, want)
		}
	})
}

// TestWheelStopMidBatchResume stops the loop from inside a same-time
// batch; the untouched remainder of the batch must survive and fire, in
// seq order, on the next Run.
func TestWheelStopMidBatchResume(t *testing.T) {
	onWheel(t, func(t *testing.T, loop *Loop) {
		var fired []int
		for i := 0; i < 6; i++ {
			i := i
			loop.At(1000, func() {
				fired = append(fired, i)
				if i == 2 {
					loop.Stop()
				}
			})
		}
		loop.RunUntilIdle()
		if got := fmt.Sprint(fired); got != "[0 1 2]" {
			t.Fatalf("fired %s after Stop, want [0 1 2]", got)
		}
		if got := loop.Pending(); got != 3 {
			t.Fatalf("Pending() = %d after mid-batch stop, want 3", got)
		}
		loop.RunUntilIdle()
		if got := fmt.Sprint(fired); got != "[0 1 2 3 4 5]" {
			t.Fatalf("fired %s after resume, want [0 1 2 3 4 5]", got)
		}
	})
}

// TestWheelReleaseReuse releases the loop (epoch bump + arena drop)
// and checks stale handles are inert and the loop stays usable.
func TestWheelReleaseReuse(t *testing.T) {
	onWheel(t, func(t *testing.T, loop *Loop) {
		stale := loop.At(500, func() { t.Error("released event fired") })
		loop.At(900, func() { t.Error("released event fired") })
		loop.Release()
		if stale.Pending() {
			t.Fatal("stale handle Pending after Release")
		}
		if stale.Stop() {
			t.Fatal("stale handle Stop reported true after Release")
		}
		if loop.Pending() != 0 {
			t.Fatalf("Pending() = %d after Release, want 0", loop.Pending())
		}
		ok := false
		loop.At(1200, func() { ok = true })
		loop.RunUntilIdle()
		if !ok {
			t.Fatal("loop unusable after Release")
		}
	})
}

// traceEvent is one firing observed by the random workload.
type traceEvent struct {
	at    Time
	label int
}

// workloadRun is what one random workload left behind: its firing trace
// and the loop's own accounting.
type workloadRun struct {
	trace     []traceEvent
	fired     uint64
	scheduled uint64 // At calls
	stopped   uint64 // Stop calls that reported true
	pending   int    // Pending() once idle
}

// workload names one pseudo-random schedule: its seed, and whether it
// adds the bursts that crowd one bucket with 65–128 events.
type workload struct {
	seed   uint64
	bursts bool
}

func (wl workload) String() string {
	if wl.bursts {
		return fmt.Sprintf("bursts/seed=%d", wl.seed)
	}
	return fmt.Sprintf("seed=%d", wl.seed)
}

// runScheduleWorkload is runWorkload on the plain workload of seed.
func runScheduleWorkload(loop *Loop, seed uint64) workloadRun {
	return runWorkload(loop, workload{seed: seed}, nil)
}

// runWorkload drives one pseudo-random schedule/stop/reschedule
// workload against a loop and returns the full firing trace. The
// workload exercises every wheel path: dense same-timestamp batches,
// far-future events that cascade through multiple levels, cancels of
// queued and in-flight timers, nested scheduling from callbacks, and
// deadline-bounded run segments. With bursts it adds groups of 65–128
// events in one bucket, at one instant, across one aligned span or
// beyond the wheel's window: every other same-instant burst stops the
// loop in the middle of its batch (runTo resumes it, so the tail is
// requeued), and every other spread burst is cancelled whole before it
// is due, emptying a crowded bucket. check, if set, runs after every
// callback and every run segment.
func runWorkload(loop *Loop, wl workload, check func()) workloadRun {
	rng := NewRNG(wl.seed)
	var run workloadRun
	var live []Timer
	label := 0
	at := func(when Time, fn func()) Timer {
		if check != nil {
			inner := fn
			fn = func() { inner(); check() }
		}
		run.scheduled++
		tm := loop.At(when, fn)
		live = append(live, tm)
		return tm
	}
	trace := func() int {
		id := label
		label++
		return id
	}

	halted, bursts := false, 0
	burst := func() {
		bursts++
		n := 65 + rng.Intn(64)
		spread := []Time{0, 1 << 6, 1 << 12, 1 << 18, wheelHorizon}[rng.Intn(5)]
		base := loop.Now() + Time(1<<12+rng.Intn(1<<20))
		switch spread {
		case 0:
		case wheelHorizon: // the overflow bucket, which a pull empties
			base += wheelHorizon
			spread = 1 << 20
		default:
			base = (base + spread) &^ (spread - 1) // one aligned span: one bucket
		}
		stopAt := -1
		if spread == 0 && bursts%2 == 0 {
			stopAt = 1 + rng.Intn(n-2)
		}
		timers := make([]Timer, 0, n)
		for i := 0; i < n; i++ {
			when := base
			if spread > 0 {
				when += Time(rng.Intn(int(spread)))
			}
			id := trace()
			stops := i == stopAt
			timers = append(timers, at(when, func() {
				run.trace = append(run.trace, traceEvent{at: loop.Now(), label: id})
				if stops {
					loop.Stop()
					halted = true
				}
			}))
		}
		if spread > 0 && bursts%2 == 0 {
			id := trace()
			at(loop.Now()+Time(rng.Intn(int(base-loop.Now()))), func() {
				run.trace = append(run.trace, traceEvent{at: loop.Now(), label: id})
				for _, tm := range timers {
					if tm.Stop() {
						run.stopped++
					}
				}
			})
		}
	}

	var spawn func(depth int) func()
	spawn = func(depth int) func() {
		id := trace()
		return func() {
			run.trace = append(run.trace, traceEvent{at: loop.Now(), label: id})
			if depth >= 3 {
				return
			}
			// From inside a callback, sometimes schedule more work —
			// including same-instant events and far-horizon events —
			// and sometimes stop a random live timer.
			n := rng.Intn(4)
			for i := 0; i < n; i++ {
				var d Time
				switch rng.Intn(4) {
				case 0:
					d = 0 // same tick: joins the running batch
				case 1:
					d = Time(rng.Intn(64)) // same level-0 span
				case 2:
					d = Time(rng.Intn(1 << 14)) // mid levels
				default:
					d = Time(rng.Intn(1 << 30)) // deep levels / overflow
				}
				at(loop.Now()+d, spawn(depth+1))
			}
			if len(live) > 0 && rng.Bool(0.3) && live[rng.Intn(len(live))].Stop() {
				run.stopped++
			}
			if wl.bursts && depth == 0 && rng.Bool(0.05) {
				burst()
			}
		}
	}
	runTo := func(deadline Time) {
		for {
			loop.Run(deadline)
			if check != nil {
				check()
			}
			if !halted {
				return
			}
			halted = false
		}
	}

	for i := 0; i < 200; i++ {
		at(Time(rng.Intn(1<<22)), spawn(0))
	}
	if wl.bursts {
		for i := 0; i < 4; i++ {
			burst()
		}
	}
	// Alternate bounded runs (pausing mid-workload) with more external
	// scheduling, then drain.
	for _, frac := range []Time{1 << 18, 1 << 20, 1 << 21} {
		runTo(frac)
		for i := 0; i < 20; i++ {
			at(loop.Now()+Time(rng.Intn(1<<22)), spawn(0))
		}
		if wl.bursts {
			burst()
			burst()
		}
	}
	runTo(Forever)
	run.fired, run.pending = loop.Fired(), loop.Pending()
	return run
}

// workloadDigests pins runScheduleWorkload's firing trace for seeds 1…8:
// an FNV-1a hash over every (at, label) in firing order, then Fired().
// They were recorded with the 4-ary heap the wheel replaced and the
// wheel firing identical traces.
var workloadDigests = [8]uint64{
	0x809939a0a1552a7d, 0x0d20d3d7f2be208f, 0xdabd9f65c54c3db8, 0xcadaaec76eb5f11d,
	0x038a94d24650ff8a, 0xb9c44909433df545, 0xa004543c8f7b6e1d, 0x26c836ab8f5fc0e7,
}

// traceDigest condenses one workload's firing trace for workloadDigests.
func traceDigest(trace []traceEvent, fired uint64) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for _, e := range trace {
		put(uint64(e.at))
		put(uint64(e.label))
	}
	put(fired)
	return h.Sum64()
}

// burstDigests pins runWorkload's trace, as workloadDigests does, for
// the bursts workloads of seeds 1…8. They were recorded on a wheel whose
// buckets were arrays of (time, seq, slot) entries; the wheel of bucket
// lists fires the same traces.
var burstDigests = [8]uint64{
	0xe7e9a502b9a597cd, 0x83fc6bc2a5caa238, 0x3631175c13f579a3, 0x9d7e4ff5bd41daf2,
	0xa328013bde990a17, 0x3cd4cdd4b08adb2c, 0x12eeee8a57f654c1, 0x7e9c1a6ed949df84,
}

// TestSchedulerDifferentialRandom replays seeded workloads and requires
// each to fire the trace the heap and the wheel both fired when it was
// pinned (timestamp and label of every callback, in order, and the
// Fired() count). Labels are assigned in seq order, so the trace pins
// the (time, seq) contract across every bucket/cascade/cancel path the
// workload touches. The order check sees an event fired out of order;
// the accounting below sees the one defect it cannot, a lost event.
// After every callback and every run segment, checkLists holds the
// wheel's lists to their links: a slot linked into two buckets, or a
// bucket whose occupancy bit is wrong, could lose or misfile an event
// without tripping the order check.
func TestSchedulerDifferentialRandom(t *testing.T) {
	for _, bursts := range []bool{false, true} {
		for seed := uint64(1); seed <= 8; seed++ {
			wl := workload{seed: seed, bursts: bursts}
			pinned := workloadDigests[seed-1]
			if bursts {
				pinned = burstDigests[seed-1]
			}
			t.Run(wl.String(), func(t *testing.T) {
				loop := NewLoop()
				run := runWorkload(loop, wl, func() {
					if err := checkLists(loop); err != nil {
						t.Fatalf("at %v: %v", loop.Now(), err)
					}
				})
				if got := traceDigest(run.trace, run.fired); got != pinned {
					t.Errorf("trace digest %#016x (%d events, Fired %d), pinned %#016x",
						got, len(run.trace), run.fired, pinned)
				}
				if want := run.scheduled - run.stopped; run.fired != want {
					t.Errorf("Fired() = %d, want %d scheduled − %d stopped = %d",
						run.fired, run.scheduled, run.stopped, want)
				}
				if run.pending != 0 {
					t.Errorf("Pending() = %d at idle, want 0", run.pending)
				}
			})
		}
	}
}

// checkLists checks the wheel's buckets against the slots they thread
// through: every listed slot's pos names its bucket, which is the bucket
// of its timestamp, and its next's prev is itself; a bucket's occupancy
// bit is set exactly when its head is a slot; no overflow event is
// earlier than the overflow minimum, which is Forever when the bucket is
// empty; and no more slots are listed than the wheel counts queued
// (which also bounds the walk of a list that never returns to its head).
func checkLists(l *Loop) error {
	w := &l.w
	if extra := w.occ[wheelLevels] &^ 1; extra != 0 {
		return fmt.Errorf("occupancy bits %#x set past the overflow bucket", extra)
	}
	if w.head[overflowIdx] == nilSlot && w.ovMin != Forever {
		return fmt.Errorf("the overflow bucket is empty, its minimum %v", w.ovMin)
	}
	listed := 0
	for b, h := range w.head {
		if occupied := w.occ[b>>wheelBits]&(1<<uint(b&wheelMask)) != 0; occupied != (h != nilSlot) {
			return fmt.Errorf("bucket %d has head %d but occupancy bit %v", b, h, occupied)
		}
		if h == nilSlot {
			continue
		}
		for id := h; ; {
			if listed++; listed > w.count {
				return fmt.Errorf("more slots listed than the %d queued (at bucket %d)", w.count, b)
			}
			s := &l.slots[id]
			if int(s.pos) != b || w.bucketFor(s.at) != b {
				return fmt.Errorf("slot %d (at %v) is listed in bucket %d, its pos is %d and its timestamp's bucket %d",
					id, s.at, b, s.pos, w.bucketFor(s.at))
			}
			if b == overflowIdx && s.at < w.ovMin {
				return fmt.Errorf("overflow slot %d is due at %v, before the overflow minimum %v", id, s.at, w.ovMin)
			}
			if back := l.slots[s.next].prev; back != id {
				return fmt.Errorf("slot %d's next, %d, has prev %d", id, s.next, back)
			}
			if id = s.next; id == h {
				break
			}
		}
	}
	return nil
}

// mustPanic runs fn and fails unless it panics with a message that
// contains want.
func mustPanic(t *testing.T, want string, fn func()) {
	t.Helper()
	defer func() {
		msg := fmt.Sprint(recover())
		if !strings.Contains(msg, want) {
			t.Fatalf("panic %q, want one containing %q", msg, want)
		}
	}()
	fn()
}

// TestOrderCheckCatchesForgedDefects forges the defects the order check
// exists for, directly in the wheel's buckets and counters, and requires
// the run to panic on each.
func TestOrderCheckCatchesForgedDefects(t *testing.T) {
	t.Run("misfiled-entry", func(t *testing.T) {
		loop := NewLoop()
		early := loop.At(100, func() {}) // level 1, slot 1 (64–127 ns)
		loop.At(150, func() {})          // level 1, slot 2 (128–191 ns)
		// Refile the 100 ns entry in slot 3 (192–255 ns): the 150 ns
		// event fires first, and the min-scan of slot 3 then yields 100.
		w := &loop.w
		w.head[wheelSlots+3], w.head[wheelSlots+1] = early.id, nilSlot
		loop.slots[early.id].pos = wheelSlots + 3
		w.occ[1] = w.occ[1]&^(1<<1) | 1<<3
		mustPanic(t, "draining tick 100ns after 150ns", func() { loop.RunUntilIdle() })
	})
	t.Run("tick-before-the-last", func(t *testing.T) {
		loop := NewLoop()
		loop.At(100, func() {})
		late := loop.At(110, func() {})
		loop.Run(100) // fires 100 ns; 110 ns re-files in level-0 slot 46
		// Move it to slot 6: the level-0 tick 70 ns, which the wheel
		// has already passed.
		w := &loop.w
		w.head[6], w.head[46] = late.id, nilSlot
		loop.slots[late.id].pos = 6
		w.occ[0] = 1 << 6
		mustPanic(t, "draining tick 70ns after 100ns", func() { loop.RunUntilIdle() })
	})
	t.Run("seq-reused-within-a-tick", func(t *testing.T) {
		loop := NewLoop()
		loop.At(100, func() {
			loop.seq = 0 // the next event takes seq 1 again
			loop.At(100, func() {})
		})
		mustPanic(t, "event seq 1 fired at 100ns after seq 1", func() { loop.RunUntilIdle() })
	})
}

// TestWheelPendingAcrossLevels cross-checks Pending() bookkeeping while
// timers spread over every level are scheduled, cancelled and fired.
func TestWheelPendingAcrossLevels(t *testing.T) {
	onWheel(t, func(t *testing.T, loop *Loop) {
		var timers []Timer
		// One timer per level span, plus overflow.
		for _, at := range []Time{3, 200, 9000, 1 << 19, 1 << 25, 1 << 31, 1 << 40} {
			timers = append(timers, loop.At(at, func() {}))
		}
		if got := loop.Pending(); got != len(timers) {
			t.Fatalf("Pending() = %d, want %d", got, len(timers))
		}
		// Cancel every other one.
		cancelled := 0
		for i := 0; i < len(timers); i += 2 {
			if timers[i].Stop() {
				cancelled++
			}
		}
		if got := loop.Pending(); got != len(timers)-cancelled {
			t.Fatalf("Pending() = %d after cancels, want %d", got, len(timers)-cancelled)
		}
		loop.RunUntilIdle()
		if got := loop.Pending(); got != 0 {
			t.Fatalf("Pending() = %d after drain, want 0", got)
		}
		if got := loop.Fired(); got != uint64(len(timers)-cancelled) {
			t.Fatalf("Fired() = %d, want %d", got, len(timers)-cancelled)
		}
	})
}
