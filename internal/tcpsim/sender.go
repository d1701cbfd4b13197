package tcpsim

import (
	"time"

	"spdier/internal/sim"
)

// sender is the half of an endpoint that Conn and QUICConn have in
// common, embedded by value in both: the congestion window and its
// controller, the RTT estimator, the destination-metrics seed and store,
// the idle restart, the undo snapshot, the probe and the writable hook.
// These are the policies the paper's argument runs on (§6.2.1, §6.2.4,
// Figure 12), so each exists once and every arm gets the same one.
//
// What the transports disagree on is handed in by the caller, never
// branched on here: whether anything is in flight or queued, how many
// bytes a probe sample reports in flight, how much is still unsent.
// Timers (RTO vs PTO), ACK resolution (cumulative + SACK vs ranges) and
// the handshakes stay with the transport.
type sender struct {
	loop *sim.Loop
	cfg  Config
	id   string
	dest string

	cc       CongestionControl
	rtt      rttEstimator
	cwnd     float64
	ssthresh float64

	// everSent and lastDataSend date the last data transmission, which is
	// what the idle restart measures the idle period from.
	everSent     bool
	lastDataSend sim.Time

	// undoCwnd/undoSsthresh are the window as it stood when the open loss
	// episode began (saveUndo). What proves an episode spurious, and how
	// much of the snapshot comes back, is the transport's: DSACK counting
	// and F-RTO on a Conn, the original's late ACK on a QUICConn.
	undoCwnd     float64
	undoSsthresh float64

	// writable hook: invoked when the unsent backlog drains to or below
	// the threshold, letting an application (the proxy's session pump)
	// keep the socket fed without deep buffering.
	writableThresh int
	writableHook   func()
	inWritableHook bool

	IdleRestarts int
	BytesSentApp int64
}

// init fills in a zero sender: defaults for an unset Config, a fresh
// controller and estimator, and the Linux tcp_metrics seed — ssthresh and
// RTT state of the last connection to dest, when the cache has one.
// cubic, when not nil, is where a built-in CUBIC controller is built
// instead of in an allocation of its own.
func (s *sender) init(loop *sim.Loop, cfg Config, id, dest string, cubic *Cubic) {
	if cfg.MSS <= 0 {
		cfg = DefaultConfig()
	}
	s.loop, s.cfg, s.id, s.dest = loop, cfg, id, dest
	s.cc = newCC(cfg.CC, cubic)
	if invOn {
		s.cc = checkedCC{s.cc}
	}
	s.rtt = newRTTEstimator(cfg.InitialRTO, cfg.MinRTO, cfg.MaxRTO)
	s.cwnd = cfg.InitialCwnd
	s.ssthresh = 1 << 20 // "infinite" until first loss
	if e, ok := cfg.Metrics.Lookup(dest); ok {
		if e.Ssthresh > 0 {
			s.ssthresh = e.Ssthresh
		}
		s.rtt.seed(e.SRTT, e.RTTVar)
	}
}

// Cwnd returns the congestion window in segments.
func (s *sender) Cwnd() float64 { return s.cwnd }

// Ssthresh returns the slow-start threshold in segments.
func (s *sender) Ssthresh() float64 { return s.ssthresh }

// SRTT returns the smoothed RTT estimate (zero if no sample yet).
func (s *sender) SRTT() time.Duration { return s.rtt.srtt }

// RTO returns the current retransmission (or probe) timeout.
func (s *sender) RTO() time.Duration { return s.rtt.current() }

// InSlowStart reports whether the sender is below ssthresh.
func (s *sender) InSlowStart() bool { return s.cwnd < s.ssthresh }

// SetWritableHook registers fn to be called whenever, after transmission
// opportunities are exhausted, the unsent backlog is at or below
// threshold bytes. The hook may write; re-entrant invocations are
// suppressed.
func (s *sender) SetWritableHook(threshold int, fn func()) {
	s.writableThresh = threshold
	s.writableHook = fn
}

// fireWritable runs the hook if queued, the transport's unsent backlog,
// is at or below the threshold.
func (s *sender) fireWritable(queued int) {
	if s.writableHook == nil || s.inWritableHook || queued > s.writableThresh {
		return
	}
	s.inWritableHook = true
	s.writableHook()
	s.inWritableHook = false
}

// storeMetrics flushes the connection's RTT state, and its ssthresh if a
// loss ever set one, to the destination cache (§6.2.4).
func (s *sender) storeMetrics() {
	if s.cfg.Metrics == nil {
		return
	}
	e := MetricsEntry{SRTT: s.rtt.srtt, RTTVar: s.rtt.rttvar}
	if s.ssthresh < 1<<20 {
		e.Ssthresh = s.ssthresh
	}
	if e.SRTT > 0 || e.Ssthresh > 0 {
		s.cfg.Metrics.Store(s.dest, e)
	}
}

// maybeIdleRestart applies Linux congestion-window validation: if the
// connection has been idle (no data sent) for longer than one RTO, the
// cwnd snaps back to the initial window. With ResetRTTAfterIdle the RTT
// estimate is also discarded — the paper's fix. quiet is the transport's
// word that nothing is in flight and nothing is queued; inFlight is the
// byte count its samples report, as for probe.
func (s *sender) maybeIdleRestart(quiet bool, inFlight int) {
	if s.cfg.NoIdleDemotion || !s.everSent || !quiet {
		return
	}
	idle := s.loop.Now().Sub(s.lastDataSend)
	// Compare against the un-backed-off timeout: whether the connection
	// went idle is a property of the path's RTT, not of how many times a
	// timer fired. Using the backed-off RTO here let a connection that
	// had just suffered (possibly spurious) timeouts dodge window
	// validation entirely, because its inflated RTO out-waited the idle
	// gap.
	if idle <= s.rtt.base() {
		return
	}
	if s.cfg.SlowStartAfterIdle {
		if s.cwnd > s.cfg.InitialCwnd {
			s.cwnd = s.cfg.InitialCwnd
		}
		s.cc.Reset()
		s.IdleRestarts++
		s.probe(EvIdleRestart, inFlight)
	}
	if s.cfg.ResetRTTAfterIdle {
		s.rtt.reset()
		s.probe(EvRTTReset, inFlight)
	}
}

// saveUndo snapshots the window at the start of a loss episode, for the
// transport to restore if the episode is proven spurious.
func (s *sender) saveUndo() {
	s.undoCwnd, s.undoSsthresh = s.cwnd, s.ssthresh
}

// enterLoss takes the congestion response to a loss: ssthresh collapses
// from the current cwnd and the controller notes the event. What becomes
// of cwnd is the caller's — 1 after an RTO, ssthresh+3 in fast recovery,
// ssthresh for RACK and QUIC, min(cwnd, ssthresh) after a lost TLP tail.
func (s *sender) enterLoss() {
	s.ssthresh = s.cc.SsthreshAfterLoss(s.cwnd)
	s.cc.OnLoss(s.loop.Now(), s.cwnd)
}

// probe emits one tcp_probe-style sample; inFlight is the transport's
// count of unacknowledged bytes.
func (s *sender) probe(ev ProbeEvent, inFlight int) {
	if s.cfg.Probe == nil {
		return
	}
	s.cfg.Probe.Sample(ProbeSample{
		At:       s.loop.Now(),
		ConnID:   s.id,
		Event:    ev,
		Cwnd:     s.cwnd,
		Ssthresh: s.ssthresh,
		InFlight: inFlight,
		RTOms:    float64(s.rtt.current()) / float64(time.Millisecond),
		SRTTms:   float64(s.rtt.srtt) / float64(time.Millisecond),
	})
}
