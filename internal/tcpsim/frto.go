package tcpsim

// F-RTO with Eifel-style undo (RFC 5682 + RFC 3522's response).
//
// The baseline connection already carries a quasi-F-RTO: after an RTO,
// retransmissions beyond the head segment are held back for one ACK,
// and an ACK covering a segment that was marked lost but never
// retransmitted proves the timeout spurious and clears the loss marks
// (see trySend and processNewAck). What the baseline does NOT do is
// repair the damage: cwnd stays collapsed at the restart window,
// ssthresh stays halved until DSACKs trickle back (and only partially,
// per performUndo), and the RTO backoff persists. In the paper's idle
// scenario — a 2 s radio promotion beating a ~600 ms stale RTO — that
// residue is precisely the "lasting damage" of Figure 12.
//
// The FRTO arm turns the detection into the full in-protocol bugfix:
// the moment the spurious verdict lands, the pre-timeout cwnd and
// ssthresh are restored, the congestion controller rolls back its loss
// bookkeeping, the exponential backoff is cleared, and the connection
// returns to the open state without waiting for DSACK confirmation.

// frtoEligible reports whether the spurious-timeout verdict should
// trigger the full Eifel undo: the arm is on, we are still in the loss
// state the RTO opened, and a pre-collapse snapshot exists.
func (c *Conn) frtoEligible() bool {
	return c.cfg.FRTO && c.caState == caLoss && c.undoActive
}

// frtoUndo performs the Eifel undo after a spurious-timeout verdict.
// The caller has already cleared the loss marks (stopping go-back-N);
// this restores window state as if the timeout had never fired.
func (c *Conn) frtoUndo() {
	if c.cwnd < c.undoCwnd {
		c.cwnd = c.undoCwnd
	}
	if c.ssthresh < c.undoSsthresh {
		c.ssthresh = c.undoSsthresh
	}
	c.cc.OnUndo(c.loop.Now(), c.cwnd)
	c.rtt.progress()
	c.caState = caOpen
	c.dupAcks = 0
	c.lossAcks = 0
	// The episode is fully undone: later DSACKs for its head
	// retransmissions must not replay the partial DSACK undo.
	c.undoActive = false
	c.FrtoUndos++
	c.probe(EvFRTOUndo, c.InFlightBytes())
}
