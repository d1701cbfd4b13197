package sim

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"
)

// wheel is the Loop's event queue, a hierarchical timing wheel: six
// levels of 64 slots at 1 ns granularity, giving O(1) insert and cancel
// across the simulator's whole timer spectrum — sub-millisecond
// link/serialization events up through multi-second RTO/RRC/think-time
// timers — with an unsorted overflow list for events outside the
// current ~68.7 s (2^36 ns) window.
//
// Geometry. Placement is by 64-ary digits of the absolute timestamp: an
// event lands at level k = the highest digit in which at and cur differ
// (one Len64 of at XOR cur), in slot (at >> 6k) & 63. Digit placement
// (rather than classic delta placement) buys two structural invariants:
//
//   - An event's bucket is a pure function of (at, cur). Cancel
//     recomputes it and swap-removes after a short scan, so neither the
//     slot pool nor the buckets carry position indexes, and re-placing
//     an event never writes to the slot pool at all.
//   - Slots never wrap: every occupied slot at level k shares all
//     higher digits with cur and exceeds cur's own digit k, so "next
//     event" is TrailingZeros64 on the lowest non-empty occupancy
//     bitmap — no carry or rotation handling anywhere.
//
// A level-k bucket spans exactly one level-k tick (its events share all
// digits above k), so the lowest bucket of the lowest non-empty level
// holds the global minimum. Advancing the clock jumps cur straight to
// that bucket's earliest timestamp and splits the bucket once: events
// at the minimum go directly into the drain batch, later ones re-place
// at a strictly lower level. An event is touched at most once per level
// on its way to firing, and the common cases — the next event alone in
// its bucket, or an entire bucket sharing one timestamp — cost a single
// detach.
//
// Events whose timestamp leaves the current 2^36 ns window (think
// timers, Forever watchdogs) sit unsorted in the overflow bucket with a
// tracked minimum; they are pulled into the wheel only when that
// minimum would precede the next wheel event, so a Forever watchdog
// costs one integer compare per scheduling decision and never cascades.
//
// Firing order. A level-0 slot holds exactly one tick (one exact
// timestamp), so global (time, seq) order reduces to seq order within a
// batch. Buckets are unsorted (cancel is swap-remove, a split appends),
// so the detached batch is sorted by seq, then fired without touching
// the wheel again. That is the batched same-timestamp delivery: no
// per-event re-sift, and events scheduled for the same tick by the
// batch's own callbacks join a fresh pass with strictly higher seqs.
//
// The order check. The Loop's run panics if a tick it drains is earlier
// than the last one, and every fire site panics unless the event's seq
// is above the last seq fired in the same tick. Together they assert
// that every event fires above the last in (time, seq) order, on every
// run.
type wheel struct {
	cur Time // wheel position: every queued event has at >= cur

	count   int
	occ     [wheelLevels]uint64
	ovMin   Time // min at in the overflow bucket; Forever when empty
	buckets [numBuckets][]bref
	// seeds is the one allocation every bucket's seed slice is carved
	// from (seedOf). A bucket holds its seed slice whenever it is empty.
	seeds []bref
	// spares are the grown bucket arrays no bucket is using, emptied.
	spares  spareSet
	scratch []flight
	// batchPending marks that nextTick already detached the returned
	// tick's events into scratch, so drainTick starts there instead of
	// at the level-0 bucket.
	batchPending bool
}

const (
	wheelBits    = 6
	wheelSlots   = 1 << wheelBits
	wheelMask    = wheelSlots - 1
	wheelLevels  = 6
	wheelHorizon = Time(1) << (wheelBits * wheelLevels)

	// overflowIdx is the bucket index of the outside-the-window list.
	overflowIdx = wheelLevels * wheelSlots
	numBuckets  = overflowIdx + 1

	// seedSmall and seedWide are the capacities of the buckets' seed
	// slices, so that first-touch appends allocate nothing: seedWide at
	// levels 3 and 4 (262 µs and 16.8 ms a slot), where link, ACK and
	// retransmission timers crowd a bucket before it splits, seedSmall
	// elsewhere. seedEntries is what all 385 take.
	seedSmall   = 2
	seedWide    = 16
	seedEntries = (wheelLevels-2)*wheelSlots*seedSmall + 2*wheelSlots*seedWide + seedSmall

	// A bucket that outgrows its seed borrows an array of twice its
	// capacity, growMin at least, from the spares and gives it back
	// when it empties. So a run holds as many grown arrays as its
	// buckets use at once, not one per bucket it ever filled. growMin
	// is above every seed, so capacity alone tells a seed slice from a
	// grown array.
	growMin = 2 * seedWide

	// spareClasses bounds the spares' size classes: class c holds
	// arrays of capacity growMin << c. A bucket grown past the last
	// class (over a million events) owns its arrays outright.
	spareClasses = 16
)

// spareSet is a wheel's spare bucket arrays binned by capacity, one
// stack per power-of-two class (spareClass).
type spareSet [spareClasses][][]bref

// spareClass is the class of a grown array's capacity n, a power of two
// of at least growMin.
func spareClass(n int) int { return bits.Len(uint(n)) - bits.Len(growMin) }

// seedCap is the seed capacity of a bucket at level l (wheelLevels for
// the overflow bucket).
func seedCap(l int) int {
	if l == 3 || l == 4 {
		return seedWide
	}
	return seedSmall
}

// bref is one bucket entry. The (at, seq) key is stored inline so
// min-scans, splits and overflow pulls never chase the slot pool.
type bref struct {
	at  Time
	seq uint64
	id  int32
}

// flight is one detached drain-batch entry; gen makes entries whose
// timer was stopped by an earlier callback in the same batch inert.
type flight struct {
	seq uint64
	id  int32
	gen uint32
}

// seed gives an empty wheel at position 0 a small private capacity in
// every bucket, carved from one allocation, and a drain scratch, so
// first-touch appends during a run allocate nothing.
func (w *wheel) seed() {
	*w = wheel{ovMin: Forever, seeds: make([]bref, seedEntries), scratch: make([]flight, 0, wheelSlots)}
	w.carve()
}

// carve gives every bucket its seed slice.
func (w *wheel) carve() {
	for b := range w.buckets {
		w.buckets[b] = w.seedOf(b)
	}
}

// seedOf is bucket b's seed slice, empty; nil on a wheel with no seeds
// (a released loop's). The seed arena holds the seeds in bucket order.
func (w *wheel) seedOf(b int) []bref {
	if w.seeds == nil {
		return nil
	}
	l := b >> wheelBits
	off := (b & wheelMask) * seedCap(l)
	for k := 0; k < l; k++ {
		off += wheelSlots * seedCap(k)
	}
	return w.seeds[off : off : off+seedCap(l)]
}

// grow returns full bucket b's entries in an array of twice its
// capacity (growMin at least): a spare of that class if there is one, a
// new array if not. The old array becomes a spare unless it is a seed
// slice.
func (w *wheel) grow(b int) []bref {
	bk := w.buckets[b]
	n := max(2*cap(bk), growMin)
	var nb []bref
	if c := spareClass(n); c < spareClasses && len(w.spares[c]) > 0 {
		s := w.spares[c]
		nb = s[len(s)-1][:len(bk)]
		w.spares[c] = s[:len(s)-1]
	} else {
		nb = make([]bref, len(bk), n)
	}
	copy(nb, bk)
	w.spare(bk)
	return nb
}

// spare takes back bk, an array no bucket uses any more: a grown one
// joins the spares of its class, a seed slice stays in the seeds.
func (w *wheel) spare(bk []bref) {
	if cap(bk) <= seedWide {
		return
	}
	if c := spareClass(cap(bk)); c < spareClasses {
		w.spares[c] = append(w.spares[c], bk[:0])
	}
}

// empty marks bucket b, whose entries have all left, empty: it gets its
// seed slice back, and its grown array, if it had one, goes to the
// spares. Small enough to inline at the drain sites, where a bucket
// that never grew takes the first branch.
func (w *wheel) empty(b int, bk []bref) {
	if cap(bk) > seedWide {
		w.unborrow(b, bk)
		return
	}
	w.buckets[b] = bk[:0]
}

// unborrow is empty's out-of-line half, for a grown bucket.
//
//go:noinline
func (w *wheel) unborrow(b int, bk []bref) {
	w.spare(bk)
	w.buckets[b] = w.seedOf(b)
}

// bucketFor returns the bucket index for timestamp at under the current
// wheel position: the digit-placement rule shared by place and cancel.
func (w *wheel) bucketFor(at Time) int {
	x := uint64(at ^ w.cur)
	if x >= uint64(wheelHorizon) {
		return overflowIdx
	}
	level := 0
	if x > wheelMask {
		level = (bits.Len64(x) - 1) / wheelBits
	}
	return level*wheelSlots + int(uint64(at)>>(uint(level)*wheelBits))&wheelMask
}

// place files an event into its bucket. Re-placement during splits and
// overflow pulls comes through here too and touches only bucket memory,
// never the slot pool.
func (w *wheel) place(at Time, seq uint64, id int32) {
	b := w.bucketFor(at)
	bk := w.buckets[b]
	if len(bk) == cap(bk) {
		bk = w.grow(b)
	}
	w.buckets[b] = append(bk, bref{at: at, seq: seq, id: id})
	if b < overflowIdx {
		w.occ[b>>wheelBits] |= 1 << uint(b&wheelMask)
	} else if at < w.ovMin {
		w.ovMin = at
	}
}

// pull re-files every overflow event inside the current window and
// recomputes the overflow minimum. place never appends to the overflow
// bucket for an in-window timestamp, so in-place compaction is safe,
// and the overflow array is not a spare while place may take one.
func (w *wheel) pull() {
	ov := w.buckets[overflowIdx]
	keep := ov[:0]
	minKeep := Forever
	for _, e := range ov {
		if uint64(e.at^w.cur) < uint64(wheelHorizon) {
			w.place(e.at, e.seq, e.id)
			continue
		}
		keep = append(keep, e)
		if e.at < minKeep {
			minKeep = e.at
		}
	}
	if len(keep) == 0 {
		w.empty(overflowIdx, keep)
	} else {
		w.buckets[overflowIdx] = keep
	}
	w.ovMin = minKeep
}

// cancel removes queued slot id from the wheel; the caller frees the
// slot afterwards.
func (l *Loop) cancel(id int32) {
	w := &l.w
	w.count--
	s := &l.slots[id]
	if s.pos == posInFlight {
		// Detached into the current drain batch; the batch's gen check
		// (against the freed slot) makes its entry inert.
		return
	}
	b := w.bucketFor(s.at)
	bk := w.buckets[b]
	last := len(bk) - 1
	for p := last; ; p-- {
		if bk[p].id != id {
			continue
		}
		bk[p] = bk[last]
		w.buckets[b] = bk[:last]
		break
	}
	if last == 0 {
		w.empty(b, bk)
		if b == overflowIdx {
			w.ovMin = Forever
		} else {
			w.occ[b>>wheelBits] &^= 1 << uint(b&wheelMask)
		}
	}
	// A cancelled overflow minimum can leave ovMin stale-low; that only
	// triggers an early pull, which recomputes it.
}

func (l *Loop) run(deadline Time) Time {
	for !l.stopped {
		t, ok := l.nextTick(deadline)
		if !ok {
			if deadline != Forever && l.now < deadline {
				l.now = deadline
			}
			return l.now
		}
		if t > l.now {
			l.now, l.firedSeq = t, 0
		} else if t < l.now {
			panic(fmt.Sprintf("sim: draining tick %v after %v", t, l.now))
		}
		l.drainTick(t)
	}
	if deadline != Forever && l.now < deadline && l.w.count == 0 {
		l.now = deadline
	}
	return l.now
}

// inOrder is the per-event half of the order check: within a tick, each
// fired event's seq is strictly above the previous one's. It is small
// enough to inline at the three fire sites.
func (l *Loop) inOrder(seq uint64) {
	if seq <= l.firedSeq {
		l.seqPanic(seq)
	}
	l.firedSeq = seq
}

// seqPanic is kept out of line so that inOrder stays inlinable.
//
//go:noinline
func (l *Loop) seqPanic(seq uint64) {
	panic(fmt.Sprintf("sim: event seq %d fired at %v after seq %d", seq, l.now, l.firedSeq))
}

// nextTick advances the wheel to the earliest queued timestamp if it is
// within deadline, and reports it. cur only ever moves to timestamps
// that are about to fire (or to the overflow minimum, equally about to
// be examined), so a deadline-bounded Run leaves the wheel untouched
// beyond the last fired event and consistent for later scheduling.
func (l *Loop) nextTick(deadline Time) (Time, bool) {
	w := &l.w
search:
	for {
		// Level 0: one tick per slot, never behind cur, so the lowest
		// set bit is the earliest level-0 timestamp.
		if w.occ[0] != 0 {
			t := (w.cur &^ Time(wheelMask)) | Time(bits.TrailingZeros64(w.occ[0]))
			// The overflow-empty check breaks the Forever tie: with
			// events queued at t == Forever the ovMin sentinel equals t
			// without anything to pull.
			if w.ovMin <= t && len(w.buckets[overflowIdx]) != 0 {
				if w.ovMin > deadline {
					return 0, false
				}
				w.pull()
				continue search
			}
			if t > deadline {
				return 0, false
			}
			w.cur = t
			return t, true
		}

		// Higher levels: the lowest bucket of the lowest non-empty
		// level holds the global wheel minimum (its events share their
		// upper digits with cur; anything at a higher level differs in
		// a higher digit and so lies beyond all of them).
		for k := 1; k < wheelLevels; k++ {
			if w.occ[k] == 0 {
				continue
			}
			p := bits.TrailingZeros64(w.occ[k])
			bIdx := k*wheelSlots + p
			bk := w.buckets[bIdx]
			minAt := bk[0].at
			for j := 1; j < len(bk); j++ {
				if bk[j].at < minAt {
					minAt = bk[j].at
				}
			}
			if w.ovMin <= minAt {
				if w.ovMin > deadline {
					return 0, false
				}
				// ovMin lies between cur and an in-window wheel
				// timestamp, so it shares cur's window and the pull is
				// guaranteed to file it.
				w.pull()
				continue search
			}
			if minAt > deadline {
				return 0, false
			}
			// Jump straight to the minimum and split the bucket once:
			// minimum-timestamp events go directly into the drain
			// batch, later ones re-place at a strictly lower level
			// (they share digit k and everything above it with the new
			// cur, so they can never land back in this bucket). The
			// bucket's array is emptied only after the loop: a spare
			// it became could be taken by a re-place while bk is read.
			w.occ[k] &^= 1 << uint(p)
			w.cur = minAt
			w.scratch = w.scratch[:0]
			for _, e := range bk {
				if e.at != minAt {
					w.place(e.at, e.seq, e.id)
					continue
				}
				s := &l.slots[e.id]
				w.scratch = append(w.scratch, flight{seq: e.seq, id: e.id, gen: s.gen})
				s.pos = posInFlight
			}
			w.empty(bIdx, bk)
			w.batchPending = true
			return minAt, true
		}

		// Wheel empty: only the overflow bucket (if anything) remains.
		// Jump straight to its minimum — this is the one place a
		// Forever-scheduled event is ever examined.
		if len(w.buckets[overflowIdx]) == 0 || w.ovMin > deadline {
			return 0, false
		}
		w.cur = w.ovMin
		w.pull()
	}
}

// drainTick fires every event of one tick as a batch: detach, sort by
// seq, fire. Callbacks may schedule into the same tick (picked up by
// the next pass, with higher seqs), stop not-yet-fired batch members
// (the gen check skips them), or stop the loop (the remainder is
// re-queued so a later Run resumes exactly where it left off).
func (l *Loop) drainTick(t Time) {
	w := &l.w
	slot := int(uint64(t) & wheelMask)
	bit := uint64(1) << uint(slot)
	if w.batchPending {
		// nextTick already detached this tick's events; fire them
		// without touching the level-0 bucket. A singleton batch — the
		// dominant sparse-queue case — needs no sort and, since no
		// callback has run since the detach, no gen or stop check.
		w.batchPending = false
		if len(w.scratch) == 1 {
			e := w.scratch[0]
			l.inOrder(e.seq)
			s := &l.slots[e.id]
			call := s.h
			w.count--
			l.freeSlot(e.id)
			l.fired++
			call.Call()
		} else if !l.fireBatch() {
			return
		}
	}
	for {
		if l.stopped {
			return // unfired same-tick events stay queued in the bucket
		}
		bk := w.buckets[slot] // level-0 bucket index == slot index
		if len(bk) == 0 {
			w.occ[0] &^= bit
			return
		}
		if len(bk) == 1 {
			// Singleton tick: no batch to sort and no mid-batch stop to
			// arbitrate, so fire directly without the scratch detach.
			e := bk[0]
			l.inOrder(e.seq)
			s := &l.slots[e.id]
			call := s.h
			w.empty(slot, bk)
			w.occ[0] &^= bit
			w.count--
			l.freeSlot(e.id)
			l.fired++
			call.Call()
			continue
		}
		w.scratch = w.scratch[:0]
		for _, e := range bk {
			s := &l.slots[e.id]
			w.scratch = append(w.scratch, flight{seq: e.seq, id: e.id, gen: s.gen})
			s.pos = posInFlight
		}
		w.empty(slot, bk)
		w.occ[0] &^= bit
		if !l.fireBatch() {
			return
		}
	}
}

// fireBatch sorts the detached scratch batch by seq and fires it,
// re-queuing the unfired remainder if a callback stops the loop. It
// reports whether the drain should continue.
func (l *Loop) fireBatch() bool {
	w := &l.w
	// Insertion order is already seq order unless a split interleaved
	// with direct placement, so a linear check guards the sort.
	for i := 1; i < len(w.scratch); i++ {
		if w.scratch[i].seq < w.scratch[i-1].seq {
			slices.SortFunc(w.scratch, func(a, b flight) int { return cmp.Compare(a.seq, b.seq) })
			break
		}
	}
	for i := 0; i < len(w.scratch); i++ {
		if l.stopped {
			l.requeue(w.scratch[i:])
			return false
		}
		e := w.scratch[i]
		s := &l.slots[e.id]
		if s.gen != e.gen {
			continue // stopped by an earlier callback in this batch
		}
		l.inOrder(e.seq)
		call := s.h
		w.count--
		l.freeSlot(e.id)
		l.fired++
		call.Call()
	}
	return true
}

// requeue puts the unfired tail of a stopped batch back into its
// level-0 bucket through place: the wheel stands at the batch's tick, so
// each event's bucket is that tick's level-0 slot. Order relative to any
// events the batch's callbacks scheduled for the same tick is
// irrelevant: the next drain re-sorts by seq.
func (l *Loop) requeue(rest []flight) {
	w := &l.w
	for _, e := range rest {
		s := &l.slots[e.id]
		if s.gen != e.gen {
			continue
		}
		s.pos = posQueued
		w.place(s.at, e.seq, e.id)
	}
}
