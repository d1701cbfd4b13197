package tcpsim

import (
	"time"

	"spdier/internal/sim"
)

// rackState implements time-based loss detection (RACK, RFC 8985
// simplified): track the send time of the most recently *delivered*
// segment; any outstanding segment sent more than a reordering window
// earlier than that delivery was passed over on the wire and is marked
// lost. This replaces counting duplicate ACKs: one SACK for a late
// segment can condemn an arbitrary number of earlier holes, paced by
// time rather than by the arrival of three separate dupACKs.
//
// Deterministic simplification: no reordering timer. A segment inside
// the reordering window is simply re-examined on the next delivery,
// which in a discrete-event world costs one extra ACK of latency at
// most and keeps the event stream identical across runs.
type rackState struct {
	// xmitTime/endSeq describe the most recently sent segment known
	// delivered (cumulatively acked or SACKed). Only original
	// transmissions update it: a retransmission's delivery time is
	// ambiguous under Karn's rule.
	xmitTime sim.Time
	endSeq   uint64
}

// rackReoWnd is the reordering tolerance: srtt/4 (the RFC 8985 default
// starting window), floored at the clock granularity so a zero-srtt
// estimator cannot condemn same-flight segments.
func (c *Conn) rackReoWnd() time.Duration {
	w := c.rtt.srtt / 4
	if w < clockGranularity {
		w = clockGranularity
	}
	return w
}

// rackSeen records the delivery of an original (never-retransmitted)
// segment with the given send time and end sequence.
func (c *Conn) rackSeen(sentAt sim.Time, endSeq uint64) {
	if sentAt > c.rack.xmitTime || (sentAt == c.rack.xmitTime && endSeq > c.rack.endSeq) {
		c.rack.xmitTime = sentAt
		c.rack.endSeq = endSeq
	}
}

// rackDetectLoss marks outstanding segments lost whose send time
// precedes the newest delivery by more than the reordering window.
// Returns whether any new mark was made.
func (c *Conn) rackDetectLoss() bool {
	if c.rack.xmitTime == 0 {
		return false
	}
	reo := c.rackReoWnd()
	marked := false
	fl := c.infl()
	for i := range fl {
		s := &fl[i]
		if s.sacked || s.lost || s.retx {
			continue
		}
		if c.rack.xmitTime.Sub(s.sentAt) > reo {
			c.markLost(s, causeRACK)
			marked = true
		}
	}
	return marked
}

// rackEnterRecovery opens a fast-recovery episode for RACK-marked
// losses from the open state: snapshot for undo, collapse ssthresh,
// and let the trySend recovery loop drain the marked backlog paced by
// the window — no triple-dupACK threshold involved.
func (c *Conn) rackEnterRecovery() {
	c.openLossEpisode()
	c.caState = caRecovery
	c.cwnd = c.ssthresh
	c.abortTLP()
	c.armRTO()
}

// rackOnAck runs the RACK pipeline after SACK/cumulative processing of
// one ACK: advance the delivered-time watermark (done by the callers
// that still hold the acked records), detect losses, and open recovery
// if new marks were made outside an episode.
func (c *Conn) rackOnAck() {
	if !c.cfg.RACK {
		return
	}
	if c.rackDetectLoss() && c.caState == caOpen {
		c.rackEnterRecovery()
	}
}
