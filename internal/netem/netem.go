// Package netem emulates network paths inside the discrete-event
// simulator: token-by-token serialization at a configured bandwidth,
// propagation delay with optional jitter, drop-tail queueing, random
// loss, and — for cellular paths — gating by an RRC radio state machine.
//
// The cellular gate is the load-bearing piece of the reproduction: when
// the radio is idle, packets in either direction stall for the promotion
// delay (~2 s on 3G). TCP, living above this layer, knows nothing about
// it; the spurious retransmissions in the paper emerge from the timing
// alone.
package netem

import (
	"time"

	"spdier/internal/rrc"
	"spdier/internal/sim"
)

// Payload is an opaque unit carried across a link (a TCP segment model).
type Payload any

// Gate is anything that can stall and rate-limit a link. The RRC machine
// implements it; wired links use no gate.
type Gate interface {
	// ReadyAt records activity of the given size now and returns the
	// earliest time the radio can carry it.
	ReadyAt(bytes int) sim.Time
	// CurrentRate returns a rate ceiling in bits/sec (0 = unconstrained).
	CurrentRate() int64
}

var _ Gate = (*rrc.Machine)(nil)

// LinkConfig describes one direction of a path.
type LinkConfig struct {
	// BandwidthBPS is the serialization rate in bits per second.
	BandwidthBPS int64
	// Delay is the one-way propagation delay.
	Delay time.Duration
	// Jitter adds a truncated-normal random term (stddev = Jitter) to the
	// propagation delay of every packet. Reordering is prevented.
	Jitter time.Duration
	// QueueBytes bounds the drop-tail queue (bytes awaiting or under
	// serialization). Zero means a generous default of 256 KiB.
	QueueBytes int
	// LossRate is the independent per-packet drop probability.
	LossRate float64
	// Impair adds bursty loss, reordering, duplication and extra jitter.
	// The zero value is inert: it draws no randomness and leaves the
	// link's behaviour bit-identical to an unimpaired run.
	Impair Impairments
}

func (c LinkConfig) queueLimit() int {
	if c.QueueBytes <= 0 {
		return 256 << 10
	}
	return c.QueueBytes
}

// LinkStats counts per-link activity.
type LinkStats struct {
	Sent          int
	Delivered     int
	DroppedQueue  int
	DroppedLoss   int   // independent (uniform) loss
	DroppedBurst  int   // Gilbert-Elliott burst loss
	DroppedFilter int   // dropped by an installed packet filter
	Reordered     int   // delivered out of FIFO order
	Duplicated    int   // delivered twice
	Bytes         int64 // delivered bytes, duplicates included
}

// Link is one direction of a network path.
type Link struct {
	loop *sim.Loop
	cfg  LinkConfig
	rng  *sim.RNG
	gate Gate

	receiver func(Payload)
	// filter, when non-nil, sees every payload before the drop stages and
	// may veto it (return false = drop). Targeted-loss oracles use this to
	// drop, say, only one stream's packets; nil (the default) leaves the
	// link's behaviour and randomness draws untouched.
	filter func(Payload, int) bool

	// busyUntil is when the serializer frees up.
	busyUntil sim.Time
	// queuedBytes tracks backlog for drop-tail accounting.
	queuedBytes int
	// lastArrival enforces FIFO delivery despite jitter.
	lastArrival sim.Time
	// geBad is the Gilbert-Elliott channel state (true = Bad/bursty).
	geBad bool

	// In-flight packets are tracked in two FIFO rings driven by two
	// prebound callbacks, instead of one capturing closure per event.
	// This is sound because both event streams are scheduled in
	// monotonically non-decreasing time order (busyUntil never moves
	// backwards; arrivals are clamped to lastArrival) and the event loop
	// breaks time ties in scheduling order, so events fire in exactly the
	// order the rings were pushed.
	txq       ring[int]      // wire sizes awaiting end-of-serialization
	arrivals  ring[delivery] // payloads awaiting delivery at the far end
	onTxDone  func()
	onArrival func()

	stats LinkStats
}

// NewLink creates a link. gate may be nil (wired/WiFi).
func NewLink(loop *sim.Loop, cfg LinkConfig, rng *sim.RNG, gate Gate) *Link {
	l := &Link{loop: loop, cfg: cfg, rng: rng, gate: gate}
	l.onTxDone = func() { l.queuedBytes -= l.txq.pop() }
	l.onArrival = func() {
		d := l.arrivals.pop()
		l.stats.Delivered++
		l.stats.Bytes += int64(d.size)
		if l.receiver != nil {
			l.receiver(d.p)
		}
	}
	return l
}

// SetReceiver installs the delivery callback for the far end.
func (l *Link) SetReceiver(fn func(Payload)) { l.receiver = fn }

// SetFilter installs a packet filter consulted first in Send, before any
// randomness is drawn: returning false drops the packet (counted in
// DroppedFilter). Passing nil removes the filter.
func (l *Link) SetFilter(fn func(Payload, int) bool) { l.filter = fn }

// Stats returns a copy of the link counters.
func (l *Link) Stats() LinkStats { return l.stats }

// Config returns the link configuration.
func (l *Link) Config() LinkConfig { return l.cfg }

// transmissionTime returns how long size bytes occupy the serializer,
// honoring any rate ceiling from the gate (e.g. CELL_FACH's shared
// low-rate channel).
func (l *Link) transmissionTime(size int) time.Duration {
	bps := l.cfg.BandwidthBPS
	if l.gate != nil {
		if r := l.gate.CurrentRate(); r > 0 && r < bps {
			bps = r
		}
	}
	if bps <= 0 {
		return 0
	}
	return time.Duration(float64(size*8) / float64(bps) * float64(time.Second))
}

// Send enqueues a payload of the given wire size. It reports false if the
// packet was dropped (queue overflow or random loss).
func (l *Link) Send(p Payload, size int) bool {
	l.stats.Sent++
	now := l.loop.Now()

	if l.filter != nil && !l.filter(p, size) {
		l.stats.DroppedFilter++
		return false
	}
	if l.queuedBytes+size > l.cfg.queueLimit() {
		l.stats.DroppedQueue++
		return false
	}
	if l.cfg.LossRate > 0 && l.rng.Bool(l.cfg.LossRate) {
		l.stats.DroppedLoss++
		return false
	}
	if l.cfg.Impair.geEnabled() && l.geStep() {
		l.stats.DroppedBurst++
		return false
	}

	// Radio gating: the packet cannot begin serialization before the
	// radio is ready. ReadyAt also resets the RRC inactivity timers.
	ready := now
	if l.gate != nil {
		ready = l.gate.ReadyAt(size)
	}

	start := l.busyUntil
	if start < ready {
		start = ready
	}
	if start < now {
		start = now
	}
	txTime := l.transmissionTime(size)
	done := start.Add(txTime)
	l.busyUntil = done
	l.queuedBytes += size

	// Propagation with jitter; clamp to preserve FIFO ordering.
	prop := l.cfg.Delay
	if l.cfg.Jitter > 0 {
		j := l.rng.Norm(0, float64(l.cfg.Jitter))
		prop += time.Duration(j)
		if prop < l.cfg.Delay/2 {
			prop = l.cfg.Delay / 2
		}
	}
	if ej := l.cfg.Impair.ExtraJitter; ej > 0 {
		prop += time.Duration(l.rng.Float64() * float64(ej))
	}

	l.txq.push(size)
	l.loop.At(done, l.onTxDone)

	// Reordered packets are held for extra propagation and delivered
	// outside the FIFO arrival ring: they neither wait for nor advance
	// lastArrival, so later packets overtake them.
	if rp := l.cfg.Impair.ReorderProb; rp > 0 && l.rng.Bool(rp) {
		l.stats.Reordered++
		arrive := done.Add(prop).Add(l.reorderHold())
		l.deliverAside(p, size, arrive)
		l.maybeDup(p, size, arrive, txTime)
		return true
	}

	arrive := done.Add(prop)
	if arrive < l.lastArrival {
		arrive = l.lastArrival
	}
	l.lastArrival = arrive

	l.arrivals.push(delivery{p: p, size: size})
	l.loop.At(arrive, l.onArrival)
	l.maybeDup(p, size, arrive, txTime)
	return true
}

// maybeDup schedules a duplicate delivery of an accepted packet with
// probability DupProb, one serialization time behind the original.
func (l *Link) maybeDup(p Payload, size int, arrive sim.Time, txTime time.Duration) {
	dp := l.cfg.Impair.DupProb
	if dp <= 0 || !l.rng.Bool(dp) {
		return
	}
	cp := p
	if d, ok := p.(Duplicable); ok {
		cp = d.DupPayload()
	}
	if cp == nil {
		return
	}
	l.stats.Duplicated++
	l.deliverAside(cp, size, arrive.Add(txTime))
}

// delivery is one queued arrival at the far end of a link.
type delivery struct {
	p    Payload
	size int
}

// ring is a minimal power-of-two FIFO. It exists so the per-packet
// dequeue and delivery bookkeeping costs zero allocations in steady
// state.
type ring[T any] struct {
	buf     []T
	head, n int
}

func (r *ring[T]) push(v T) {
	if r.n == len(r.buf) {
		r.grow()
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = v
	r.n++
}

// pop zeroes the slot it empties, so a queued payload is not kept
// alive by the ring.
func (r *ring[T]) pop() T {
	i := r.head
	v := r.buf[i]
	var zero T
	r.buf[i] = zero
	r.head = (i + 1) & (len(r.buf) - 1)
	r.n--
	return v
}

func (r *ring[T]) grow() {
	nb := make([]T, max(2*len(r.buf), 16))
	for i := 0; i < r.n; i++ {
		nb[i] = r.buf[(r.head+i)&(len(r.buf)-1)]
	}
	r.buf, r.head = nb, 0
}

// Path is a duplex pair of links, optionally sharing one radio gate.
// Direction A→B is conventionally "uplink" (device to proxy) and B→A
// "downlink" (proxy to device).
type Path struct {
	AtoB  *Link
	BtoA  *Link
	Radio *rrc.Machine
}

// PathConfig configures both directions of a path.
type PathConfig struct {
	Up   LinkConfig // A→B
	Down LinkConfig // B→A
}

// NewPath builds a duplex path. radio may be nil for wired/WiFi.
func NewPath(loop *sim.Loop, cfg PathConfig, rng *sim.RNG, radio *rrc.Machine) *Path {
	var gate Gate
	if radio != nil {
		gate = radio
	}
	return &Path{
		AtoB:  NewLink(loop, cfg.Up, rng.Fork(1), gate),
		BtoA:  NewLink(loop, cfg.Down, rng.Fork(2), gate),
		Radio: radio,
	}
}

// Profile3G describes the client↔proxy leg over a production 3G (UMTS)
// network: a few Mbit/s down, high and variable latency, deep buffers.
func Profile3G() PathConfig {
	return PathConfig{
		Up: LinkConfig{
			BandwidthBPS: 1_500_000,
			Delay:        70 * time.Millisecond,
			Jitter:       45 * time.Millisecond,
			QueueBytes:   192 << 10,
			LossRate:     0.0003,
		},
		Down: LinkConfig{
			BandwidthBPS: 6_000_000,
			Delay:        70 * time.Millisecond,
			Jitter:       45 * time.Millisecond,
			QueueBytes:   1 << 20,
			LossRate:     0.0003,
		},
	}
}

// ProfileLTE describes the client↔proxy leg over LTE: higher rate,
// much lower and steadier latency.
func ProfileLTE() PathConfig {
	return PathConfig{
		Up: LinkConfig{
			BandwidthBPS: 8_000_000,
			Delay:        25 * time.Millisecond,
			Jitter:       6 * time.Millisecond,
			QueueBytes:   256 << 10,
			LossRate:     0.0005,
		},
		Down: LinkConfig{
			BandwidthBPS: 20_000_000,
			Delay:        25 * time.Millisecond,
			Jitter:       6 * time.Millisecond,
			QueueBytes:   1 << 20,
			LossRate:     0.0005,
		},
	}
}

// ProfileWiFi describes the 802.11g + residential broadband setup of
// Section 4.0.1: 15 Mbit/s down / 2 Mbit/s up, stable ~20 ms latency.
func ProfileWiFi() PathConfig {
	return PathConfig{
		Up: LinkConfig{
			BandwidthBPS: 2_000_000,
			Delay:        20 * time.Millisecond,
			Jitter:       3 * time.Millisecond,
			QueueBytes:   128 << 10,
			LossRate:     0.0002,
		},
		Down: LinkConfig{
			BandwidthBPS: 15_000_000,
			Delay:        20 * time.Millisecond,
			Jitter:       3 * time.Millisecond,
			QueueBytes:   640 << 10,
			LossRate:     0.0002,
		},
	}
}
