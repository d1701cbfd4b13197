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
// (rather than classic delta placement) means slots never wrap: every
// occupied slot at level k shares all higher digits with cur and exceeds
// cur's own digit k, so "next event" is TrailingZeros64 on the lowest
// non-empty occupancy bitmap — no carry or rotation handling anywhere.
//
// Buckets. As in Varghese and Lauck's wheel, a bucket is a list threaded
// through its events' own records: each slot carries next, prev and, in
// pos, the index of the bucket it is in, and the wheel holds one head
// index per bucket. Placing appends at the tail and cancelling unlinks,
// both O(1) with no scan, and the wheel owns no memory that grows with
// how many events crowd one bucket: only the slot pool grows.
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
// batch. A bucket's list is in placement order, not seq order (a split
// or a pull appends re-placed events behind ones placed directly), so
// the detached batch is sorted by seq, then fired without touching
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

	count int
	// occ has one bit per non-empty bucket: word k for level k, and
	// word wheelLevels's bit 0 for the overflow bucket.
	occ   [wheelLevels + 1]uint64
	ovMin Time // min at in the overflow bucket; Forever when empty
	// head is each bucket's first slot, nilSlot when it is empty: a
	// circular doubly linked list through the slots' next and prev, in
	// placement order, its tail the head's prev.
	head    [numBuckets]int32
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

	// nilSlot is the head of an empty bucket.
	nilSlot = -1
)

// flight is one detached drain-batch entry; gen makes entries whose
// timer was stopped by an earlier callback in the same batch inert.
type flight struct {
	seq uint64
	id  int32
	gen uint32
}

// reset empties the wheel at position cur, keeping scratch as its drain
// scratch.
func (w *wheel) reset(cur Time, scratch []flight) {
	*w = wheel{cur: cur, ovMin: Forever, scratch: scratch}
	for b := range w.head {
		w.head[b] = nilSlot
	}
}

// bucketFor returns the bucket index for timestamp at under the current
// wheel position: the digit-placement rule.
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

// detach empties bucket b and returns its list's first slot, whose prev
// is the last; the list's links are left for the caller to walk.
func (w *wheel) detach(b int) int32 {
	id := w.head[b]
	w.head[b] = nilSlot
	w.occ[b>>wheelBits] &^= 1 << uint(b&wheelMask)
	return id
}

// place files slot id at the tail of its timestamp's bucket. Re-placing
// during splits and overflow pulls comes through here too: the walk
// that re-places saves the slot's next first.
func (l *Loop) place(id int32) {
	w := &l.w
	s := &l.slots[id]
	b := w.bucketFor(s.at)
	s.pos = int32(b)
	if b == overflowIdx && s.at < w.ovMin {
		w.ovMin = s.at
	}
	h := w.head[b]
	if h == nilSlot {
		w.head[b] = id
		s.next, s.prev = id, id
		w.occ[b>>wheelBits] |= 1 << uint(b&wheelMask)
		return
	}
	hs := &l.slots[h]
	s.next, s.prev = h, hs.prev
	l.slots[hs.prev].next = id
	hs.prev = id
}

// pull re-files every event of the non-empty overflow bucket: those
// inside the current window into the wheel, the rest back into the
// overflow bucket, whose minimum the re-placing recomputes.
func (l *Loop) pull() {
	w := &l.w
	w.ovMin = Forever
	id := w.detach(overflowIdx)
	for last := l.slots[id].prev; ; {
		next := l.slots[id].next
		l.place(id)
		if id == last {
			return
		}
		id = next
	}
}

// cancel removes queued slot id from the wheel, unlinking it from its
// bucket's list; the caller frees the slot afterwards.
func (l *Loop) cancel(id int32) {
	w := &l.w
	w.count--
	s := &l.slots[id]
	if s.pos == posInFlight {
		// Detached into the current drain batch; the batch's gen check
		// (against the freed slot) makes its entry inert.
		return
	}
	b := int(s.pos)
	if s.next == id {
		w.detach(b)
		if b == overflowIdx {
			w.ovMin = Forever
		}
		return
	}
	l.slots[s.prev].next = s.next
	l.slots[s.next].prev = s.prev
	if w.head[b] == id {
		w.head[b] = s.next
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
			// without anything to pull. The higher levels check it too.
			if w.ovMin <= t && w.occ[wheelLevels] != 0 {
				if w.ovMin > deadline {
					return 0, false
				}
				l.pull()
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
			b := k*wheelSlots + bits.TrailingZeros64(w.occ[k])
			first := w.head[b]
			last := l.slots[first].prev
			minAt := l.slots[first].at
			for id := first; id != last; {
				id = l.slots[id].next
				if at := l.slots[id].at; at < minAt {
					minAt = at
				}
			}
			if w.ovMin <= minAt && w.occ[wheelLevels] != 0 {
				if w.ovMin > deadline {
					return 0, false
				}
				// ovMin lies between cur and an in-window wheel
				// timestamp, so it shares cur's window and the pull is
				// guaranteed to file it.
				l.pull()
				continue search
			}
			if minAt > deadline {
				return 0, false
			}
			// Jump straight to the minimum and split the bucket once:
			// minimum-timestamp events go directly into the drain
			// batch, later ones re-place at a strictly lower level
			// (they share digit k and everything above it with the new
			// cur, so they can never land back in this bucket).
			w.detach(b)
			w.cur = minAt
			w.scratch = w.scratch[:0]
			for id := first; ; {
				s := &l.slots[id]
				next := s.next
				if s.at != minAt {
					l.place(id)
				} else {
					w.scratch = append(w.scratch, flight{seq: s.seq, id: id, gen: s.gen})
					s.pos = posInFlight
				}
				if id == last {
					break
				}
				id = next
			}
			w.batchPending = true
			return minAt, true
		}

		// Wheel empty: only the overflow bucket (if anything) remains.
		// Jump straight to its minimum — this is the one place a
		// Forever-scheduled event is ever examined.
		if w.occ[wheelLevels] == 0 || w.ovMin > deadline {
			return 0, false
		}
		w.cur = w.ovMin
		l.pull()
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
		if w.head[slot] == nilSlot { // level-0 bucket index == slot index
			return
		}
		id := w.detach(slot)
		if s := &l.slots[id]; s.next == id {
			// Singleton tick: no batch to sort and no mid-batch stop to
			// arbitrate, so fire directly without the scratch detach.
			l.inOrder(s.seq)
			call := s.h
			w.count--
			l.freeSlot(id)
			l.fired++
			call.Call()
			continue
		}
		w.scratch = w.scratch[:0]
		for last := l.slots[id].prev; ; {
			s := &l.slots[id]
			w.scratch = append(w.scratch, flight{seq: s.seq, id: id, gen: s.gen})
			s.pos = posInFlight
			if id == last {
				break
			}
			id = s.next
		}
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
	for _, e := range rest {
		if l.slots[e.id].gen == e.gen {
			l.place(e.id)
		}
	}
}
