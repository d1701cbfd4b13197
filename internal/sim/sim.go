// Package sim provides a deterministic discrete-event simulation core:
// a virtual clock, a specialized event queue, cancellable timers, and a
// seedable pseudo-random number generator.
//
// Everything in the simulator universe — TCP endpoints, radio state
// machines, link queues, browsers, proxies — schedules work through a
// single *Loop. Events fire in strict (time, sequence) order, so two runs
// with the same seed are bit-for-bit identical.
//
// The queue is built for zero steady-state allocation: events live in a
// slot pool recycled through a free list, and Timer handles are plain
// values carrying generation and epoch numbers, so At/After/Stop allocate
// nothing once the pool is warm. Stopping a timer removes its entry from
// the queue immediately, so cancelled events never linger and Pending()
// is O(1). The queue is a hierarchical timing wheel with O(1)
// insert/stop and batched same-timestamp delivery — see wheel.go.
//
// Ordering. Every run checks the order it fires in: a tick drained
// earlier than the last one, or an event whose seq is not above the last
// one fired in its tick, panics, as scheduling in the past does. So
// every test that runs a Loop, down to the golden reports, also tests
// that events fire in (time, seq) order.
package sim

import (
	"fmt"
	"math"
	"time"
)

// Time is a virtual timestamp measured as a duration since the start of
// the simulation. It is deliberately distinct from time.Time so that wall
// clock values cannot leak into the simulation.
type Time time.Duration

// Common simulated durations.
const (
	Nanosecond  = Time(time.Nanosecond)
	Microsecond = Time(time.Microsecond)
	Millisecond = Time(time.Millisecond)
	Second      = Time(time.Second)
	Minute      = Time(time.Minute)

	// Forever is a sentinel for "no deadline".
	Forever = Time(math.MaxInt64)
)

// Duration converts a virtual timestamp to a time.Duration since t=0.
func (t Time) Duration() time.Duration { return time.Duration(t) }

// Seconds reports the timestamp as floating-point seconds since t=0.
func (t Time) Seconds() float64 { return time.Duration(t).Seconds() }

// Milliseconds reports the timestamp as floating-point milliseconds.
func (t Time) Milliseconds() float64 { return float64(time.Duration(t)) / float64(time.Millisecond) }

// Add returns the timestamp advanced by d.
func (t Time) Add(d time.Duration) Time { return t + Time(d) }

// Sub returns the duration elapsed from u to t.
func (t Time) Sub(u Time) time.Duration { return time.Duration(t - u) }

func (t Time) String() string {
	if t == Forever {
		return "forever"
	}
	return time.Duration(t).String()
}

// recycleEvents gates the slot free list. Tests set it to false to prove
// pooled and unpooled runs are bit-for-bit identical; production code
// never touches it.
var recycleEvents = true

// SetEventRecycling enables or disables event-slot recycling process-wide.
// It exists solely for determinism tests (pooled vs unpooled equality) and
// must not be toggled while loops are running on other goroutines.
func SetEventRecycling(on bool) { recycleEvents = on }

// slot.pos states other than a bucket index.
const (
	posFree     = -1 // slot not queued (fired, stopped, or never used)
	posInFlight = -2 // detached into the current drain batch
)

// Handler is what the loop fires: one method, no arguments. It is the
// one callback seam of the simulator — the loop's slots, the stream
// assemblers of tcpsim and the proxy's carriers all hold a Handler — so
// that a caller with a record per unit of work (a request, say) can
// schedule that record's next step without building a closure for it: a
// pointer type derived from the record, with Call dispatching to the
// step, converts to Handler for free. A plain function is a Handler
// through Func.
type Handler interface{ Call() }

// Func adapts a function to Handler. Func values are pointer-shaped, so
// the conversion stores the function in the interface word itself and
// allocates nothing.
type Func func()

// Call runs f.
func (f Func) Call() { f() }

// eventSlot is pooled storage for one scheduled callback. Slots are
// addressed by index so the pool can grow without invalidating handles;
// gen disambiguates reuse so stale Timer values are inert.
type eventSlot struct {
	h   Handler
	at  Time
	seq uint64
	gen uint32
	// pos is the index of the wheel bucket the slot is queued in, or
	// posFree or posInFlight; next and prev link it into that bucket's
	// list.
	pos        int32
	next, prev int32
}

// Loop is a discrete-event scheduler. The zero value is not usable; call
// NewLoop.
type Loop struct {
	now      Time
	seq      uint64
	firedSeq uint64 // seq of the last event fired at now (the order check)
	epoch    uint32
	slots    []eventSlot
	free     []int32
	running  bool
	stopped  bool
	fired    uint64
	w        wheel
}

// NewLoop returns a scheduler with the clock at zero.
func NewLoop() *Loop { return NewLoopOn(&Storage{}) }

// Storage is the memory a released loop leaves for the next one, all
// emptied: the slot pool, its free list and the drain scratch. The zero
// Storage holds nothing. It is plain memory with no lock: one loop at a
// time may run on it.
type Storage struct {
	slots   []eventSlot
	free    []int32
	scratch []flight
}

// NewLoopOn is NewLoop on st's memory, which it takes, leaving st
// empty. Only capacity carries over: the loop starts with no slot, no
// free slot and no queued event, so it hands out slot ids and
// generations, and fires, exactly as a NewLoop does.
func NewLoopOn(st *Storage) *Loop {
	l := &Loop{slots: st.slots, free: st.free}
	scratch := st.scratch
	if scratch == nil {
		scratch = make([]flight, 0, wheelSlots)
	}
	l.w.reset(0, scratch)
	*st = Storage{}
	return l
}

// Now returns the current virtual time.
func (l *Loop) Now() Time { return l.now }

// Fired reports the number of events executed so far; useful as a progress
// and runaway-loop metric in tests.
func (l *Loop) Fired() uint64 { return l.fired }

// Timer is a handle to a scheduled event. The zero value is an inert
// handle: Stop and Pending report false and When reports Forever. Handles
// are values — copying one is free and a handle outlives its event safely
// (the generation and epoch checks make handles to fired, stopped or
// released events inert even after their slot is recycled).
type Timer struct {
	loop  *Loop
	id    int32
	gen   uint32
	epoch uint32
}

// valid reports whether the handle still refers to its scheduled event.
// The epoch check must come first: after Release the slot arena is gone
// and only the epoch mismatch keeps stale handles from indexing it.
func (t Timer) valid() bool {
	return t.loop != nil && t.epoch == t.loop.epoch && t.loop.slots[t.id].gen == t.gen
}

// Stop cancels the timer, removing its event from the queue immediately
// (the slot is recycled rather than lingering until popped). It reports
// whether the timer was still pending. Stopping an already-fired or
// already-stopped timer is a no-op.
func (t Timer) Stop() bool {
	if !t.valid() {
		return false
	}
	l := t.loop
	if l.slots[t.id].pos == posFree {
		return false
	}
	l.cancel(t.id)
	l.freeSlot(t.id)
	return true
}

// Pending reports whether the timer has yet to fire.
func (t Timer) Pending() bool {
	return t.valid() && t.loop.slots[t.id].pos != posFree
}

// When returns the virtual time at which the timer fires, or Forever once
// the timer has fired or been stopped.
func (t Timer) When() Time {
	if !t.Pending() {
		return Forever
	}
	return t.loop.slots[t.id].at
}

// allocSlot returns a free slot index, growing the pool if needed.
func (l *Loop) allocSlot() int32 {
	if n := len(l.free); n > 0 {
		id := l.free[n-1]
		l.free = l.free[:n-1]
		return id
	}
	l.slots = append(l.slots, eventSlot{pos: posFree})
	return int32(len(l.slots) - 1)
}

// freeSlot releases a slot back to the pool. The generation bump makes
// every outstanding Timer for this slot inert.
func (l *Loop) freeSlot(id int32) {
	s := &l.slots[id]
	s.h = nil
	s.gen++
	s.pos = posFree
	if recycleEvents {
		l.free = append(l.free, id)
	}
}

// At schedules fn to run at absolute virtual time at. Scheduling in the
// past panics: it always indicates a logic bug in a discrete-event model.
func (l *Loop) At(at Time, fn func()) Timer { return l.AtCall(at, Func(fn)) }

// After schedules fn to run d from now. Negative d is clamped to zero.
func (l *Loop) After(d time.Duration, fn func()) Timer { return l.AfterCall(d, Func(fn)) }

// AtCall is At for a Handler: the slot every event waits in.
func (l *Loop) AtCall(at Time, h Handler) Timer {
	if at < l.now {
		panic(fmt.Sprintf("sim: scheduling at %v before now %v", at, l.now))
	}
	l.seq++
	id := l.allocSlot()
	s := &l.slots[id]
	s.h = h
	s.at = at
	s.seq = l.seq
	l.w.count++
	l.place(id)
	return Timer{loop: l, id: id, gen: s.gen, epoch: l.epoch}
}

// AfterCall is After for a Handler.
func (l *Loop) AfterCall(d time.Duration, h Handler) Timer {
	if d < 0 {
		d = 0
	}
	return l.AtCall(l.now.Add(d), h)
}

// Stop halts the loop after the current event finishes.
func (l *Loop) Stop() { l.stopped = true }

// Run executes events until the queue is empty, the loop is stopped, or
// the clock passes deadline. It returns the virtual time at exit.
func (l *Loop) Run(deadline Time) Time {
	if l.running {
		panic("sim: Run called re-entrantly")
	}
	l.running = true
	defer func() { l.running = false }()
	l.stopped = false
	return l.run(deadline)
}

// RunUntilIdle executes all pending events with no deadline.
func (l *Loop) RunUntilIdle() Time { return l.Run(Forever) }

// Release drops every scheduled callback, the queue structure, and the
// slot arena in O(buckets), not O(slots): the epoch bump makes every
// outstanding Timer inert without walking the arena, and the arena
// itself is dropped in one pointer swap so the object graph its
// callbacks close over is immediately collectable. Call it once a
// simulation has finished and its results have been extracted — a
// retained Loop (e.g. reachable from a memoized result) must not pin the
// run's browser/proxy/connection graph. It allocates nothing: the loop
// is left with an empty wheel and no backing, which a later schedule
// grows again.
func (l *Loop) Release() {
	l.epoch++
	l.slots = nil
	l.free = nil
	l.w.reset(l.now, nil)
}

// ReleaseTo is Release that hands the loop's memory, emptied, to st
// instead of dropping it; whatever st held is dropped. The slots'
// callbacks are cleared first, so st pins nothing of the run, and the
// loop keeps no slice of what st now holds, so a Loop still reachable
// after its run neither pins nor sees what the next loop on st does.
func (l *Loop) ReleaseTo(st *Storage) {
	clear(l.slots)
	*st = Storage{slots: l.slots[:0], free: l.free[:0], scratch: l.w.scratch[:0]}
	l.Release()
}

// Pending reports the number of queued events. Stopped timers are removed
// from the queue eagerly, so this is an exact O(1) count.
func (l *Loop) Pending() int { return l.w.count }
