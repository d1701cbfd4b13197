package tcpsim

import (
	"fmt"
	"slices"
	"time"

	"spdier/internal/sim"
)

// Protocol invariant checker. Enabled by the package's tests (and any
// caller that wants it), it audits every connection's sender and
// receiver state at the natural commit points — end of ACK processing,
// end of data receipt, end of an RTO — against the rules the model
// claims to implement: TCP sequence/byte accounting, cwnd/ssthresh
// legality per RFC 5681, RTO backoff monotonicity and clamping per
// RFC 6298, and "never acknowledge unsent data". The checks are pure
// reads; enabling them cannot perturb a simulation, only observe it.
//
// invOn is written only from EnableInvariants/DisableInvariants, which
// must not race with running simulations (tests flip it in TestMain,
// before any simulation goroutine exists).

// InvariantViolation describes one failed protocol invariant.
type InvariantViolation struct {
	Conn   string // connection ID, empty for component-level checks
	Rule   string // short rule identifier, e.g. "ack-unsent"
	Detail string
	At     sim.Time
}

func (v InvariantViolation) Error() string {
	return fmt.Sprintf("tcpsim invariant %q violated at %v on %s: %s", v.Rule, v.At, v.Conn, v.Detail)
}

var (
	invOn      bool
	invHandler func(InvariantViolation)
)

// EnableInvariants turns the checker on. A nil handler panics on the
// first violation — the right default for tests, where any violation is
// a simulator bug.
func EnableInvariants(handler func(InvariantViolation)) {
	invOn = true
	invHandler = handler
}

// DisableInvariants turns the checker off.
func DisableInvariants() {
	invOn = false
	invHandler = nil
}

// InvariantsEnabled reports whether the checker is active.
func InvariantsEnabled() bool { return invOn }

func violate(v InvariantViolation) {
	if invHandler != nil {
		invHandler(v)
		return
	}
	panic(v)
}

// violateConn reports a violation against this endpoint, of either
// transport.
func (s *sender) violateConn(rule, format string, args ...any) {
	violate(InvariantViolation{
		Conn:   s.id,
		Rule:   rule,
		Detail: fmt.Sprintf(format, args...),
		At:     s.loop.Now(),
	})
}

// checkAckValid rejects acknowledgments of data that was never sent.
// Called before the defensive clamp in receiveAck: the clamp keeps the
// production model robust, the invariant makes the corruption visible.
func (c *Conn) checkAckValid(seg *Segment) {
	if seg.Ack > c.sndNxt {
		c.violateConn("ack-unsent", "ack=%d beyond sndNxt=%d", seg.Ack, c.sndNxt)
	}
}

// checkSender audits sequence accounting and congestion state legality.
func (c *Conn) checkSender(where string) {
	if c.sndUna > c.sndNxt {
		c.violateConn("snd-order", "%s: sndUna=%d > sndNxt=%d", where, c.sndUna, c.sndNxt)
	}
	fl := c.infl()
	if len(fl) == 0 {
		if c.sndUna != c.sndNxt {
			c.violateConn("inflight-empty", "%s: empty inflight but sndUna=%d sndNxt=%d", where, c.sndUna, c.sndNxt)
		}
	} else {
		if fl[0].seq != c.sndUna {
			c.violateConn("inflight-head", "%s: head seq=%d, sndUna=%d", where, fl[0].seq, c.sndUna)
		}
		next := fl[0].seq
		for i := range fl {
			if fl[i].seq != next {
				c.violateConn("inflight-gap", "%s: segment %d at seq=%d, expected %d", where, i, fl[i].seq, next)
			}
			if fl[i].len <= 0 {
				c.violateConn("inflight-len", "%s: segment %d has len=%d", where, i, fl[i].len)
			}
			next = fl[i].seq + uint64(fl[i].len)
		}
		if next != c.sndNxt {
			c.violateConn("inflight-tail", "%s: inflight ends at %d, sndNxt=%d", where, next, c.sndNxt)
		}
	}
	// The maintained in-flight count against the walk it replaced. The
	// walk lives on here, and only here, as the reference.
	walked := 0
	for i := range fl {
		if fl[i].counted() {
			walked++
		}
	}
	if c.inflCount != walked {
		c.violateConn("inflight-count", "%s: maintained count %d, deque holds %d unmarked segments", where, c.inflCount, walked)
	}
	c.checkWindows(where)
	if c.sendQueue < 0 {
		c.violateConn("sendq-negative", "%s: sendQueue=%d", where, c.sendQueue)
	}
	// Retransmit attribution: every wire retransmission is counted by
	// exactly one cause counter. TLP probes that carried new data are not
	// retransmissions and are excluded.
	attributed := c.Retransmits + c.FastRetransmits + c.RACKRetransmits + (c.TLPProbes - c.tlpNewData)
	if c.retxWire != attributed {
		c.violateConn("retx-attribution", "%s: %d wire retransmissions but %d attributed (rto=%d fast=%d rack=%d tlpRetx=%d)",
			where, c.retxWire, attributed, c.Retransmits, c.FastRetransmits, c.RACKRetransmits, c.TLPProbes-c.tlpNewData)
	}
	// Fix-arm gating: an arm that is off must leave no trace.
	if !c.cfg.TLP && (c.tlp.probing || c.TLPProbes > 0) {
		c.violateConn("tlp-gated", "%s: TLP state active with the arm off", where)
	}
	if !c.cfg.FRTO && c.FrtoUndos > 0 {
		c.violateConn("frto-gated", "%s: F-RTO undo fired with the arm off", where)
	}
	for i := range fl {
		if fl[i].lost && fl[i].sacked {
			c.violateConn("lost-sacked", "%s: segment %d both lost and sacked", where, i)
		}
		if fl[i].lost && fl[i].lostBy == causeRACK && !c.cfg.RACK {
			c.violateConn("rack-gated", "%s: RACK loss mark with the arm off", where)
		}
	}
	c.checkRTT(where)
}

// checkWindows audits RFC 5681 legality, for either transport: cwnd is at
// least one segment (the restart window after an RTO), ssthresh never
// collapses below two segments. The negated comparisons also catch NaN.
func (s *sender) checkWindows(where string) {
	if !(s.cwnd >= 1) || s.cwnd > 1<<24 {
		s.violateConn("cwnd-range", "%s: cwnd=%v", where, s.cwnd)
	}
	if !(s.ssthresh >= 2) {
		s.violateConn("ssthresh-min", "%s: ssthresh=%v", where, s.ssthresh)
	}
}

// checkSender audits the QUIC sender's bookkeeping against a walk of
// the sent-packet deque: the byte count in flight, the copy count, and
// the ordering the ACK merge-walk and the PN searches rely on.
func (q *QUICConn) checkSender(where string) {
	fl := q.flight()
	bytes, copies := 0, 0
	for i := range fl {
		if i > 0 && fl[i].pn <= fl[i-1].pn {
			q.violateConn("sent-order", "%s: record %d has pn=%d after pn=%d", where, i, fl[i].pn, fl[i-1].pn)
		}
		if !fl[i].acked && !fl[i].lost {
			bytes += fl[i].length
		}
		if fl[i].hasOrig {
			copies++
		}
	}
	if q.bytesInFlight+q.lostMarkDrift != bytes {
		q.violateConn("bytes-in-flight", "%s: bytesInFlight=%d (+%d drift) but the deque holds %d unresolved bytes",
			where, q.bytesInFlight, q.lostMarkDrift, bytes)
	}
	if q.sentCopies != copies {
		q.violateConn("copy-count", "%s: maintained count %d, deque holds %d copies", where, q.sentCopies, copies)
	}
	q.checkWindows(where)
	q.checkRTT(where)
}

// checkSpans holds spans — a receiver's set, or the SACK blocks or ACK
// ranges read off one — to the set's shape, which every reader of them
// assumes: none empty, the first starting at or above floor, each later
// one above the end of the one before it.
func (s *sender) checkSpans(rule, where string, spans [][2]uint64, floor uint64) {
	for i, r := range spans {
		if r[0] < floor || r[1] <= r[0] {
			s.violateConn(rule, "%s: span %d of %v is empty or starts below %d", where, i, spans, floor)
		}
		floor = r[1] + 1
	}
}

// checkNotCoalesced asserts that a loss-repair path is not being entered
// on the strength of an ACK the peer's delayed-ACK timer released. A
// timer release can never legitimately be the deciding duplicate: every
// event that arms the timer advances the ACK value past any duplicate's,
// and every out-of-order or duplicate arrival cancels the timer with an
// immediate ACK. Firing recovery off one would mean the receiver
// coalesced an ACK the sender's dupACK heuristics depend on (RFC 5681
// §4.2's prohibition on delaying out-of-order ACKs).
func (c *Conn) checkNotCoalesced(seg *Segment, path string) {
	if invOn && seg.Delayed {
		c.violateConn("coalesced-dupack", "%s triggered by a delayed-ACK-timer release (una=%d)", path, c.sndUna)
	}
}

// checkReceiver audits in-order byte accounting and the out-of-order
// buffer: its shape, every span above the cumulative point, and its
// byte count.
func (c *Conn) checkReceiver(where string) {
	if c.BytesRcvdApp != int64(c.rcvNxt) {
		c.violateConn("rcv-accounting", "%s: BytesRcvdApp=%d but rcvNxt=%d", where, c.BytesRcvdApp, c.rcvNxt)
	}
	c.checkSpans("ooo-shape", where, c.ooo, c.rcvNxt+1)
	var sum uint64
	for _, r := range c.ooo {
		sum += r[1] - r[0]
	}
	if sum != uint64(c.oooBytes) {
		c.violateConn("ooo-bytes", "%s: buffered %d bytes but oooBytes=%d", where, sum, c.oooBytes)
	}
	if w := c.recvWindow(); w < 0 || w > c.cfg.RecvBuffer {
		c.violateConn("rwnd-range", "%s: advertised window %d outside [0,%d]", where, w, c.cfg.RecvBuffer)
	}
}

// checkSackShape audits a SACK option against what applySack's
// merge-walk assumes of it: at most four blocks, in the shape of the
// buffer they are read from, the first strictly above the cumulative ACK
// the segment carries. The sender checks every ACK it takes; the
// receiver every option it sends (checkSackEmitted).
func (c *Conn) checkSackShape(where string, seg *Segment) {
	if len(seg.Sack) > maxSackBlocks {
		c.violateConn("sack-shape", "%s: %d SACK blocks %v, at most %d", where, len(seg.Sack), seg.Sack, maxSackBlocks)
	}
	c.checkSpans("sack-shape", where, seg.Sack, seg.Ack+1)
}

// checkSackEmitted holds an option the receiver is about to send to the
// buffer it was read from: its shape, and that its blocks are the
// buffer's first four spans.
func (c *Conn) checkSackEmitted(seg *Segment) {
	c.checkSackShape("sendAck", seg)
	if want := c.ooo[:min(maxSackBlocks, len(c.ooo))]; !slices.Equal(seg.Sack, want) {
		c.violateConn("sack-shape", "sendAck: blocks %v are not the buffer's first spans %v", seg.Sack, want)
	}
}

// checkRTT audits RFC 6298 clamping of the estimator behind the RTO, or
// behind QUIC's PTO.
func (s *sender) checkRTT(where string) {
	e := &s.rtt
	if e.rto < e.minRTO || e.rto > e.maxRTO {
		s.violateConn("rto-clamp", "%s: base rto=%v outside [%v,%v]", where, e.rto, e.minRTO, e.maxRTO)
	}
	if cur := e.current(); cur < e.rto && cur < e.maxRTO {
		s.violateConn("rto-backoff", "%s: backed-off rto=%v below base %v", where, cur, e.rto)
	}
	if e.valid && e.srtt <= 0 {
		s.violateConn("srtt-positive", "%s: srtt=%v with valid estimate", where, e.srtt)
	}
}

// checkBackoffMonotone asserts that one backoff step never shrinks the
// effective timeout (called from rttEstimator.backoff).
func checkBackoffMonotone(before, after time.Duration) {
	if after < before {
		violate(InvariantViolation{
			Rule:   "rto-backoff-monotone",
			Detail: fmt.Sprintf("backoff moved RTO %v -> %v", before, after),
		})
	}
}

// checkedCC wraps a CongestionControl and audits its outputs: the
// congestion-avoidance increment is non-negative and never exceeds
// slow-start pace (one segment per ACKed segment, RFC 5681 §3.1), and
// ssthresh after loss respects the two-segment floor.
type checkedCC struct {
	CongestionControl
}

func (cc checkedCC) OnAckCA(now sim.Time, cwnd float64, ackedSegs int, srtt time.Duration) float64 {
	inc := cc.CongestionControl.OnAckCA(now, cwnd, ackedSegs, srtt)
	if !(inc >= 0) || inc > float64(ackedSegs) {
		violate(InvariantViolation{
			Rule:   "cc-increment",
			At:     now,
			Detail: fmt.Sprintf("%s returned increment %v for %d acked segs (cwnd=%v)", cc.Name(), inc, ackedSegs, cwnd),
		})
	}
	return inc
}

func (cc checkedCC) SsthreshAfterLoss(cwnd float64) float64 {
	s := cc.CongestionControl.SsthreshAfterLoss(cwnd)
	if !(s >= 2) {
		violate(InvariantViolation{
			Rule:   "cc-ssthresh",
			Detail: fmt.Sprintf("%s returned ssthresh %v (cwnd=%v), below the 2-segment floor", cc.Name(), s, cwnd),
		})
	}
	return s
}
