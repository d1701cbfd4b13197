// Package tcpsim implements a segment-level TCP model faithful enough to
// reproduce the paper's cross-layer pathology: RFC 6298 retransmission
// timers with Karn's rule, slow start and congestion avoidance, NewReno
// fast retransmit/recovery, Reno and CUBIC congestion control, congestion
// window validation after idle (Linux tcp_slow_start_after_idle), a
// per-destination metrics cache (Linux tcp_metrics), receive-window flow
// control, and the paper's proposed RTT-reset-after-idle fix.
//
// Payload bytes are modeled as counts, not buffers: the application
// writes N bytes and the peer application is told when in-order bytes
// arrive. A StreamAssembler maps byte arrival back to message boundaries
// for the HTTP/SPDY layers above.
package tcpsim

import (
	"spdier/internal/netem"
	"spdier/internal/sim"
)

// segment flags.
const (
	flagSYN = 1 << iota
	flagACK
	flagFIN
	flagCTRL // out-of-band handshake payload (TLS model); no seq space
)

// headerBytes is the wire overhead charged per segment (IP + TCP with
// timestamps, rounded).
const headerBytes = 40

// maxSackBlocks is the most SACK blocks an option carries (RFC 2018
// with timestamps), and so the size of a segment's SACK array.
const maxSackBlocks = 4

// segPooling gates segment recycling. Tests set it to false to prove
// pooled and unpooled runs are bit-for-bit identical; production code
// never touches it.
var segPooling = true

// SetSegmentPooling enables or disables segment recycling process-wide.
// It exists solely for determinism tests and must not be toggled while
// simulations are running on other goroutines.
func SetSegmentPooling(on bool) { segPooling = on }

// Segment is the unit crossing the emulated path.
type Segment struct {
	to      *Conn  // receiving endpoint, set by transmit
	From    string // sender conn ID, for tracing
	Flags   int
	Seq     uint64      // first payload byte
	Len     int         // payload bytes
	Ack     uint64      // cumulative ack (valid if flagACK)
	Wnd     int         // advertised receive window, bytes
	Retx    bool        // this is a retransmission
	Dsack   bool        // ACK reports receipt of an already-received segment
	Delayed bool        // pure ACK released by the delayed-ACK timer, not an arrival
	Sack    [][2]uint64 // SACK blocks: out-of-order byte ranges held by the receiver
	TSVal   sim.Time    // sender timestamp (RFC 7323), set on data segments
	TSEcr   sim.Time    // echoed timestamp on ACKs; drives RTT sampling
	CtrlLen int         // modeled control payload (TLS handshake legs)
}

// wireSize is the number of bytes the segment occupies on the link.
func (s *Segment) wireSize() int { return headerBytes + s.Len + s.CtrlLen }

// DupPayload implements netem.Duplicable for wire duplication: the
// duplicate must be an independent copy, because delivered segments are
// recycled into the pool — handing the same pointer to the demuxer
// twice would recycle it twice and alias two future segments. The copy
// comes from (and retires to) the same pool, with its own SACK backing
// array.
func (s *Segment) DupPayload() netem.Payload {
	var cp *Segment
	var sack [][2]uint64
	if s.to != nil {
		cp = s.to.newSeg()
		sack = s.to.net.sackArray(cp, len(s.Sack))
		s.to.wireIn++ // the copy is addressed to the same end
	} else {
		cp = &Segment{}
	}
	sack = append(sack, s.Sack...)
	*cp = *s
	cp.Sack = sack
	// Delayed is evidence about the *receiver's* ACK generation (it feeds
	// the fast-retransmit-off-coalesced-ACK invariant); a wire duplicate
	// is the network's doing and must not carry that evidence.
	cp.Delayed = false
	return cp
}

// recycle zeroes a delivered segment, keeping the Sack backing array so
// later ACKs reuse it.
func (s *Segment) recycle() {
	sack := s.Sack[:0]
	*s = Segment{}
	s.Sack = sack
}

// Retransmit-cause tags recorded on sentSeg.lostBy. A segment marked
// lost carries the mechanism that marked it, so the eventual
// retransmission is attributed to exactly one cause in the counters and
// the probe stream. SACK-hole inference inside an episode keeps the
// legacy RTO attribution, matching the pre-RACK accounting.
const (
	causeRTO uint8 = iota
	causeRACK
)

// sentSeg is the sender's record of an in-flight segment.
type sentSeg struct {
	seq    uint64
	len    int
	sentAt sim.Time
	retx   bool  // ever retransmitted (Karn: no RTT sample)
	lost   bool  // marked lost after an RTO; awaiting retransmission
	sacked bool  // receiver holds this segment (SACK); never retransmit
	lostBy uint8 // cause of the lost mark (causeRTO / causeRACK)
}

// counted reports whether the record is part of pktsInFlight: on the
// wire as far as the sender knows, neither declared lost nor held by the
// receiver.
func (s *sentSeg) counted() bool { return !s.lost && !s.sacked }

// StreamAssembler converts the in-order byte arrivals reported by a Conn
// back into application message completions. Messages complete strictly
// in the order they were expected, mirroring the FIFO byte stream. The
// zero value is ready for use, fed through Deliver by whoever owns it.
type StreamAssembler struct {
	queue deque[expected]
	avail int // delivered bytes not yet consumed by a message
	// lender is where the queue's array comes from, and goes back to
	// whenever the queue empties (Borrow); nil: the queue keeps its own.
	lender *shelf[expected]
}

type expected struct {
	size int
	done sim.Handler
}

// Expect registers the next message of the given size; done is called
// when the final byte of the message has been delivered in order (a nil
// done is a message nobody waits for).
func (a *StreamAssembler) Expect(size int, done sim.Handler) {
	if size < 0 {
		panic("tcpsim: negative message size")
	}
	if a.lender != nil {
		a.lender.room(&a.queue)
	}
	a.queue.push(expected{size: size, done: done})
	a.drain()
}

// Borrow has a keep its queue in an array on loan from n's run, as a
// connection of n keeps its flight (loan.go), for as long as the queue
// is not empty: an assembler nothing is expected of holds none, so the
// streams and connections of one page assemble in the arrays of the page
// before.
func (a *StreamAssembler) Borrow(n *Network) { a.lender = &n.queues }

// Attach makes a the receiver of c's in-order bytes, as
// c.OnDeliver(a.Deliver) would without a closure for it, on arrays
// borrowed from c's network.
func (a *StreamAssembler) Attach(c *Conn) {
	a.Borrow(c.net)
	c.onDeliver = a
}

// Deliver feeds n newly arrived in-order bytes into the assembler.
func (a *StreamAssembler) Deliver(n int) {
	a.avail += n
	a.drain()
}

func (a *StreamAssembler) drain() {
	for a.queue.size() > 0 {
		m := &a.queue.live()[0]
		if a.avail < m.size {
			return
		}
		a.avail -= m.size
		done := m.done
		m.done = nil // the array outlives the message: do not pin what it called
		a.queue.popFront()
		if a.lender != nil && a.queue.size() == 0 {
			a.lender.put(a.queue.surrender())
		}
		if done != nil {
			done.Call() // may Expect again; m is dead by now
		}
	}
}

// PendingMessages reports how many expected messages are incomplete.
func (a *StreamAssembler) PendingMessages() int { return a.queue.size() }
