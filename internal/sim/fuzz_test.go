package sim

import "testing"

// Op codes of FuzzLoopSchedule's input, one byte each (mod opCount),
// followed by their operands. A missing operand byte reads as 0.
const (
	opAtLevel    = iota // level, 5 delay bytes, action, operand: At within that level's span
	opAtFar             // 5 delay bytes, action, operand: At beyond the window, or near Forever
	opAtSame            // index, action, operand: At the instant of a queued event (or now)
	opStop              // index: Stop of any handle, live or stale
	opRun               // level, 5 delay bytes: Run to now + a delay in that span
	opBurst             // count, spread, stopper, victim: many events in one bucket
	opRunForever        // Run(Forever)
	opCount
)

// Callback actions, one operand byte each (mod actCount) after a
// scheduling op: fire plainly, Stop a handle from inside the callback,
// Stop the loop, or schedule one more event up to 63 ns later (0: the
// same tick, joining the running batch).
const (
	actNone = iota
	actStopTimer
	actStopLoop
	actSchedule
	actCount
)

// fuzzMaxEvents bounds the events one input may schedule.
const fuzzMaxEvents = 2000

// refEvent is the reference queue's record of one At: its key, its
// handle and what became of it.
type refEvent struct {
	at    Time
	seq   uint64
	tm    Timer
	state int // refPending, refFired or refStopped
}

const (
	refPending = iota
	refFired
	refStopped
)

// schedFuzz runs one decoded input against a Loop and a naive reference
// queue: a slice of every event scheduled, in seq order, of which the
// pending ones must fire in (at, seq) order.
type schedFuzz struct {
	t      *testing.T
	data   []byte
	loop   *Loop
	events []*refEvent
	seq    uint64 // At calls so far: the seq of the last one
	fired  uint64
	// stopTick is the tick at which a callback last stopped the loop;
	// stopped reports that one has since the last Run began.
	stopTick Time
	stopped  bool
}

func (f *schedFuzz) byte() byte {
	if len(f.data) == 0 {
		return 0
	}
	b := f.data[0]
	f.data = f.data[1:]
	return b
}

// delay reads five bytes as a delay below span.
func (f *schedFuzz) delay(span Time) Time {
	var d uint64
	for i := 0; i < 5; i++ {
		d = d<<8 | uint64(f.byte())
	}
	return Time(d % uint64(span))
}

// levelSpan is the span of delays that can land at level k or below.
func levelSpan(k byte) Time { return Time(1) << (wheelBits * (1 + uint(k)%wheelLevels)) }

// after is now + d, saturating at Forever.
func (f *schedFuzz) after(d Time) Time {
	now := f.loop.Now()
	if d > Forever-now {
		return Forever
	}
	return now + d
}

// at schedules one event at when whose callback does act (with operand
// arg), and files it in the reference.
func (f *schedFuzz) at(when Time, act byte, arg int) {
	if len(f.events) >= fuzzMaxEvents {
		return
	}
	f.seq++
	e := &refEvent{at: when, seq: f.seq}
	f.events = append(f.events, e)
	e.tm = f.loop.At(when, func() { f.fire(e, act%actCount, arg) })
}

// fire checks that e is the reference queue's next event, then acts.
func (f *schedFuzz) fire(e *refEvent, act byte, arg int) {
	t := f.t
	if e.state != refPending {
		t.Fatalf("event seq %d (at %v) fired in state %d", e.seq, e.at, e.state)
	}
	if now := f.loop.Now(); e.at != now {
		t.Fatalf("event seq %d due at %v fired at %v", e.seq, e.at, now)
	}
	for _, o := range f.events {
		if o.state == refPending && (o.at < e.at || o.at == e.at && o.seq < e.seq) {
			t.Fatalf("event (%v, seq %d) fired before pending (%v, seq %d)", e.at, e.seq, o.at, o.seq)
		}
	}
	e.state = refFired
	f.fired++
	switch act {
	case actStopTimer:
		f.stop(arg)
	case actStopLoop:
		f.loop.Stop()
		f.stopTick, f.stopped = f.loop.Now(), true
	case actSchedule:
		f.at(f.after(Time(arg%64)), actNone, 0)
	}
	if err := checkLists(f.loop); err != nil {
		t.Fatalf("in a callback at %v: %v", f.loop.Now(), err)
	}
}

// stop stops the handle of event i (mod the events so far), live or
// stale, and checks what Stop reports against the reference.
func (f *schedFuzz) stop(i int) {
	if len(f.events) == 0 {
		return
	}
	e := f.events[i%len(f.events)]
	want := e.state == refPending
	if got := e.tm.Stop(); got != want {
		f.t.Fatalf("Stop of event seq %d in state %d reported %v", e.seq, e.state, got)
	}
	if want {
		e.state = refStopped
	}
}

// run is Loop.Run(deadline), checked: without a Loop.Stop every event
// due by deadline has fired and the clock stands at deadline (under
// Forever, at the latest event fired); with one it stands at the tick
// that stopped it, or at deadline if that emptied the queue.
func (f *schedFuzz) run(deadline Time) {
	f.stopped = false
	want := f.loop.Now()
	deadline = max(deadline, want)
	got := f.loop.Run(deadline)
	pending := 0
	for _, e := range f.events {
		switch {
		case e.state == refFired:
			want = max(want, e.at)
		case e.state != refPending:
		case !f.stopped && e.at <= deadline:
			f.t.Fatalf("Run(%v) returned with event seq %d due at %v pending", deadline, e.seq, e.at)
		default:
			pending++
		}
	}
	switch {
	case f.stopped && (pending != 0 || deadline == Forever || f.stopTick >= deadline):
		want = f.stopTick
	case deadline != Forever:
		want = deadline
	}
	if got != want || f.loop.Now() != want {
		f.t.Fatalf("Run(%v) returned %v, Now %v: want %v", deadline, got, f.loop.Now(), want)
	}
}

// burst schedules 2–64 events into one bucket: at one instant, across
// one aligned level-1 to level-3 span, or beyond the window. With
// stopper < n that member stops the loop; with victim < n, member 0
// stops member victim, which at one instant is in flight in its batch.
func (f *schedFuzz) burst() {
	n := 2 + int(f.byte()%63)
	spread := []Time{0, 1 << 6, 1 << 12, 1 << 18, wheelHorizon}[f.byte()%5]
	stopper, victim := int(f.byte()), int(f.byte())
	base := f.after(1 << 12)
	if spread == wheelHorizon {
		base, spread = f.after(wheelHorizon+1<<20), 1<<20
	} else if spread > 0 && base < Forever-2*spread {
		base = (base + spread) &^ (spread - 1)
	}
	first := len(f.events)
	for i := 0; i < n; i++ {
		when := base
		if spread > 0 && base < Forever-spread {
			when += Time(uint64(f.seq*2654435761) % uint64(spread))
		}
		switch {
		case i == stopper:
			f.at(when, actStopLoop, 0)
		case i == 0 && victim > 0 && victim < n:
			f.at(when, actStopTimer, first+victim)
		default:
			f.at(when, actNone, 0)
		}
	}
}

// check holds the loop's accounting to the reference after an op.
func (f *schedFuzz) check() {
	t := f.t
	pending := 0
	for _, e := range f.events {
		live := e.state == refPending
		when := Forever
		if live {
			pending++
			when = e.at
		}
		if e.tm.Pending() != live || e.tm.When() != when {
			t.Fatalf("event seq %d in state %d: Pending %v, When %v", e.seq, e.state, e.tm.Pending(), e.tm.When())
		}
	}
	if got := f.loop.Pending(); got != pending {
		t.Fatalf("Pending() = %d, reference %d", got, pending)
	}
	if got := f.loop.Fired(); got != f.fired {
		t.Fatalf("Fired() = %d, reference %d", got, f.fired)
	}
	if err := checkLists(f.loop); err != nil {
		t.Fatal(err)
	}
}

// FuzzLoopSchedule decodes bytes into At, Stop and Run operations and
// holds every fire to a naive reference queue ordered by (at, seq), and
// the loop's Pending, When, Fired and lists (checkLists) to it after
// every operation. Callbacks stop timers (their own batch's included),
// stop the loop in the middle of a batch and schedule into their own
// tick. The input ends with runs to Forever until the queue is empty.
func FuzzLoopSchedule(f *testing.F) {
	for _, seed := range scheduleSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 4096 {
			return
		}
		fz := &schedFuzz{t: t, data: data, loop: NewLoop()}
		for len(fz.data) > 0 {
			switch fz.byte() % opCount {
			case opAtLevel:
				k := fz.byte()
				when := fz.after(fz.delay(levelSpan(k)))
				fz.at(when, fz.byte(), int(fz.byte()))
			case opAtFar:
				d := fz.delay(1 << 40)
				when := fz.after(wheelHorizon + d)
				if top := 1<<40 - 1 - d; top < 256 {
					// The last wheel window: Forever itself, or up to
					// 261 µs before it.
					when = max(Forever-top<<10, fz.loop.Now())
				}
				fz.at(when, fz.byte(), int(fz.byte()))
			case opAtSame:
				when := fz.loop.Now()
				if i := int(fz.byte()); i < len(fz.events) && fz.events[i].state == refPending {
					when = fz.events[i].at
				}
				fz.at(when, fz.byte(), int(fz.byte()))
			case opStop:
				fz.stop(int(fz.byte()))
			case opRun:
				k := fz.byte()
				fz.run(fz.after(fz.delay(levelSpan(k))))
			case opBurst:
				fz.burst()
			case opRunForever:
				fz.run(Forever)
			}
			fz.check()
		}
		for i := 0; fz.loop.Pending() > 0; i++ {
			if i > fuzzMaxEvents {
				t.Fatalf("%d events still pending after %d runs to Forever", fz.loop.Pending(), i)
			}
			fz.run(Forever)
			fz.check()
		}
	})
}

// scheduleOps encodes FuzzLoopSchedule's operations: each op is its
// code and operands.
func scheduleOps(ops ...[]byte) []byte {
	var b []byte
	for _, op := range ops {
		b = append(b, op...)
	}
	return b
}

// scheduleSeeds are the shapes of the pinned random workloads
// (runWorkload): bursts into one bucket at one instant, across an
// aligned span and beyond the window; a same-instant burst stopped in
// the middle of its batch and resumed; a burst whose member stops a
// sibling in flight; stops of a bucket's head and tail; callbacks that
// schedule into their own tick; runs to deadlines that land between
// events.
func scheduleSeeds() [][]byte {
	at := func(level byte, d uint64, act, arg byte) []byte {
		return []byte{opAtLevel, level, byte(d >> 32), byte(d >> 24), byte(d >> 16), byte(d >> 8), byte(d), act, arg}
	}
	far := func(d uint64, act byte) []byte {
		return []byte{opAtFar, byte(d >> 32), byte(d >> 24), byte(d >> 16), byte(d >> 8), byte(d), act, 0}
	}
	run := func(level byte, d uint64) []byte {
		return []byte{opRun, level, byte(d >> 32), byte(d >> 24), byte(d >> 16), byte(d >> 8), byte(d)}
	}
	burst := func(n, spread, stopper, victim byte) []byte { return []byte{opBurst, n, spread, stopper, victim} }
	forever := []byte{opRunForever}
	return [][]byte{
		// A same-instant burst of 64 stopped at member 20, then resumed.
		scheduleOps(burst(62, 0, 20, 255), forever, forever),
		// Spread bursts into one level-1, level-2 and level-3 bucket.
		scheduleOps(burst(62, 1, 255, 255), burst(62, 2, 255, 255), burst(62, 3, 255, 255), forever),
		// A burst beyond the window, pulled in when the wheel empties.
		scheduleOps(burst(62, 4, 255, 255), at(2, 3000, actNone, 0), run(3, 100_000), forever),
		// Member 0 stops member 9 of its own batch; member 30 stops the loop.
		scheduleOps(burst(40, 0, 30, 9), forever, forever),
		// Three events in one level-1 bucket: stop its head, then its
		// tail, then run.
		scheduleOps(at(1, 3000, actNone, 0), at(1, 3001, actNone, 0), at(1, 3002, actNone, 0),
			[]byte{opStop, 0}, []byte{opStop, 2}, forever),
		// Callbacks scheduling into their own tick and 40 ns later, and
		// stopping earlier events' handles, live and stale.
		scheduleOps(at(0, 10, actSchedule, 0), at(0, 10, actSchedule, 40), at(1, 500, actStopTimer, 1),
			at(3, 200_000, actStopTimer, 0), []byte{opAtSame, 0, actStopLoop, 0}, forever, forever,
			[]byte{opStop, 0}, []byte{opStop, 3}),
		// Forever and two events just before it, pulled into the last
		// window together.
		scheduleOps(far(1<<40-1, actNone), far(1<<40-2, actNone), far(1<<40-1-255, actNone), forever),
		// Every level, the overflow and Forever, with runs to deadlines
		// between them.
		scheduleOps(at(0, 3, actNone, 0), at(1, 200, actNone, 0), at(2, 9000, actNone, 0),
			at(3, 1<<19, actNone, 0), at(4, 1<<25, actNone, 0), at(5, 1<<31, actNone, 0),
			far(1<<30, actNone), far(1<<40-1, actNone), run(2, 5000), []byte{opStop, 2},
			run(5, 1<<33), forever),
	}
}
