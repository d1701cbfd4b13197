// Loss-recovery fix arms.
//
// The paper's central finding is a loss-recovery bug: a stale RTT
// estimate after RRC idle fires a spurious RTO, and SPDY's single
// multiplexed connection absorbs all of the damage. The repo's baseline
// carries the paper-era remedies (RTT-reset-after-idle, disabling the
// metrics cache); this file and its siblings add the fixes the real
// kernel shipped since, as three independently-toggleable arms:
//
//   - TLP  (this file):  a probe timeout ≈ 2·srtt that retransmits the
//     tail before the (longer) RTO can fire. During a radio promotion
//     the probe also pushes the re-armed RTO past the stall, so short
//     promotions no longer collapse the window at all.
//   - RACK (rack.go):    time-based loss marking — a segment is lost
//     when one sent reo_wnd later has been (s)acked — replacing pure
//     dupACK-count thresholds.
//   - F-RTO (frto.go):   after an RTO fires, the first ACK covering a
//     never-retransmitted segment proves the timeout spurious; the arm
//     performs the full Eifel undo (cwnd, ssthresh, backoff, CC state)
//     instead of the baseline's partial DSACK-gated undo.
//
// Composition order per ACK: SACK application → TLP episode resolution
// (inside cumulative-ACK processing, where the F-RTO verdict also
// fires) → RACK delivery-time advance and loss marking → transmission.
// Each arm only marks state or restores state; all retransmissions
// flow through the one recovery loop in trySend, which attributes each
// wire retransmission to exactly one cause.
package tcpsim

import (
	"time"

	"spdier/internal/sim"
)

// tlpState tracks one tail-loss-probe episode (Linux tcp_send_loss_probe).
type tlpState struct {
	timer sim.Timer
	// probing marks an open episode: a probe was sent and the episode
	// resolves when the cumulative ACK reaches highSeq.
	probing bool
	highSeq uint64 // sndNxt when the probe was sent
	sentAt  sim.Time
	// newData records that the probe carried new data (nothing was
	// retransmitted), so episode resolution implies no loss.
	newData bool
	// dsacked: the receiver reported the probe as a duplicate — the
	// original tail arrived, the episode was spurious.
	dsacked bool
}

// tlpPTO computes the probe timeout: 2·srtt, plus the peer's worst-case
// delayed-ACK wait when a lone segment is in flight (its ACK may
// legitimately sit out the delack timer), floored well above clock
// granularity. Callers arm it only when it beats the RTO.
func (c *Conn) tlpPTO() time.Duration {
	pto := 2 * c.rtt.srtt
	if c.pktsInFlight() == 1 {
		pto += c.cfg.DelayedAckTimeout
	}
	if pto < 10*time.Millisecond {
		pto = 10 * time.Millisecond
	}
	return pto
}

// maybeArmTLP (re)arms the probe timer after a transmission or an ACK,
// mirroring how the RTO is re-armed. The probe is only useful from the
// open state with a valid estimate, one probe per flight, and only when
// the PTO actually undercuts the effective RTO.
func (c *Conn) maybeArmTLP() {
	if !c.cfg.TLP {
		return
	}
	c.tlp.timer.Stop()
	if c.caState != caOpen || c.tlp.probing || !c.rtt.valid || len(c.infl()) == 0 {
		return
	}
	pto := c.tlpPTO()
	if pto >= c.rtt.current() {
		return // the RTO fires first; a probe adds nothing
	}
	c.tlp.timer = c.loop.AfterCall(pto, (*tlpTimeout)(c))
}

// onTLP fires the tail loss probe: transmit one new segment if the
// application has queued data (the probe may exceed cwnd by one
// segment), otherwise retransmit the highest-sequence unsacked segment.
// Either way the RTO is re-armed from now, which is what converts a
// tail-drop (or promotion-stall) timeout into probe-triggered recovery:
// the original flight's ACKs usually arrive before the pushed-out RTO.
func (c *Conn) onTLP() {
	if !c.cfg.TLP || c.caState != caOpen || c.tlp.probing || len(c.infl()) == 0 {
		return
	}
	now := c.loop.Now()
	if c.sendQueue > 0 && c.InFlightBytes()+c.cfg.MSS <= c.peerWnd {
		c.sendNew(min(c.cfg.MSS, c.sendQueue))
		c.tlp.newData = true
		c.tlpNewData++
	} else {
		fl := c.infl()
		var probe *sentSeg
		for i := len(fl) - 1; i >= 0; i-- {
			if !fl[i].sacked {
				probe = &fl[i]
				break
			}
		}
		if probe == nil {
			return
		}
		c.retransmitSeg(probe)
		c.tlp.newData = false
	}
	c.TLPProbes++
	c.probe(EvTLPProbe, c.InFlightBytes())
	c.tlp.probing = true
	c.tlp.highSeq = c.sndNxt
	c.tlp.sentAt = now
	c.tlp.dsacked = false
	c.armRTO()
	if invOn {
		c.checkSender("onTLP")
	}
}

// resolveTLP closes an open probe episode once the cumulative ACK
// reaches the probe's high sequence. If the probe was a retransmission
// and nothing indicates the original arrived — no DSACK for the
// duplicate, and the ACK's timestamp echo stamps the probe itself —
// then the tail really was lost and the episode must not mask the
// congestion response the bypassed RTO would have taken.
func (c *Conn) resolveTLP(ack uint64, seg *Segment) {
	if !c.tlp.probing || ack < c.tlp.highSeq {
		return
	}
	c.tlp.probing = false
	if c.tlp.newData || c.tlp.dsacked {
		return
	}
	if seg.TSEcr > 0 && seg.TSEcr < c.tlp.sentAt {
		// Eifel check: the ACK was triggered by a segment sent before
		// the probe — the original tail arrived, nothing was lost.
		return
	}
	if c.caState != caOpen {
		// A loss episode opened since the probe (RACK or dupACKs saw
		// the same holes); it already took the congestion response.
		return
	}
	c.enterLoss() // no snapshot: the probe opened no episode to undo
	if c.cwnd > c.ssthresh {
		c.cwnd = c.ssthresh
	}
}

// abortTLP cancels the probe timer and any open episode; conventional
// recovery (RTO or fast retransmit) owns the flight from here.
func (c *Conn) abortTLP() {
	if !c.cfg.TLP {
		return
	}
	c.tlp.timer.Stop()
	c.tlp.probing = false
}

// noteRetransmit attributes one wire retransmission of a recovery-loop
// repair to its cause tag and emits the matching probe event. The RTO
// head retransmit, NewReno partial-ACK repair and fast retransmit call
// their counters directly; this covers segments drained from the
// marked-lost backlog.
func (c *Conn) noteRetransmit(cause uint8) {
	if cause == causeRACK {
		c.RACKRetransmits++
		c.probe(EvRACKRetx, c.InFlightBytes())
		return
	}
	c.Retransmits++
	c.probe(EvRetransmit, c.InFlightBytes())
}
