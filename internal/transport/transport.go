// Package transport names an endpoint's transport stack — congestion
// control, loss recovery, idle policy, undo policy, connection metrics,
// instrumentation — as one Spec, instead of hand-assigning tcpsim.Config
// flags at every call site.
//
// Spec.Apply is *config-level* on purpose: it only sets tcpsim.Config
// fields, so a Spec and the same fields assigned by hand give one
// Config and one simulation, RNG draw for RNG draw
// (TestSpecApplyMatchesLegacyAssignments; the layering/… rows of
// internal/experiment's run pin ledger pin each composed stack event
// for event).
//
// Kind names the wire protocol multiplexing layer above the transport;
// the browser/proxy pair select their session machinery from it, while
// the Spec below carries everything the transport itself needs.
package transport

import "spdier/internal/tcpsim"

// Kind names the protocol stack above the transport.
type Kind string

// Protocol arms of the `protocols` experiment.
const (
	// KindHTTP is HTTP/1.1 over per-request TCP connections.
	KindHTTP Kind = "http"
	// KindSPDY is SPDY/3 framing over one TCP connection (the paper's).
	KindSPDY Kind = "spdy"
	// KindH2 is HTTP/2-like framing (HPACK-sized headers, per-stream
	// flow control) over one TCP connection.
	KindH2 Kind = "h2"
	// KindQUIC is the QUIC-style transport: stream-level loss isolation
	// over tcpsim.QUICConn, 0-RTT resumption.
	KindQUIC Kind = "quic"
)

// Multiplexed reports whether the kind carries many resources on one
// transport connection (the paper's "single connection absorbs all the
// damage" regime).
func (k Kind) Multiplexed() bool { return k == KindSPDY || k == KindH2 || k == KindQUIC }

// OverTCP reports whether the kind rides the TCP Conn (as opposed to
// the QUIC-style transport).
func (k Kind) OverTCP() bool { return k != KindQUIC }

// Spec is one fully composed transport stack, ready to apply to any
// base Config. The zero value composes the paper-era proxy stack minus
// instrumentation: cubic-by-default CC (empty name defers to the base
// Config), no recovery arms, idle validation off, undo enabled.
type Spec struct {
	// Kind selects which client and connection the arm builds; it is not
	// a tcpsim.Config knob, so Apply leaves it out.
	Kind Kind
	// CC selects the congestion-control variant by registry name
	// ("cubic", "reno", or anything installed via tcpsim.RegisterCC).
	CC string
	// Recovery is the TLP/RACK/F-RTO arms as one unit.
	Recovery tcpsim.RecoveryPolicy
	// SlowStartAfterIdle and ResetRTTAfterIdle are the idle-window policy
	// pair the paper's §6 revolves around: Linux cwnd validation and the
	// §6.2.1 RTT-reset fix.
	SlowStartAfterIdle bool
	ResetRTTAfterIdle  bool
	// DisableUndo turns off DSACK/Eifel undo of spurious loss episodes —
	// the §6.2.1 ablation arm.
	DisableUndo bool
	// ZeroRTT enables 0-RTT resumption on QUIC-style endpoints (ignored
	// by TCP transports).
	ZeroRTT bool
	// Metrics attaches the shared per-destination cache (§6.2.4).
	Metrics *tcpsim.MetricsCache
	// Probe attaches tcp_probe-style instrumentation.
	Probe tcpsim.Probe
}

// Apply returns base with the Spec's fields assigned. An empty CC keeps
// base's variant; every other field overwrites base's.
func (s Spec) Apply(base tcpsim.Config) tcpsim.Config {
	if s.CC != "" {
		base.CC = s.CC
	}
	base = base.WithRecovery(s.Recovery)
	base.SlowStartAfterIdle = s.SlowStartAfterIdle
	base.ResetRTTAfterIdle = s.ResetRTTAfterIdle
	base.DisableUndo = s.DisableUndo
	base.ZeroRTT = s.ZeroRTT
	base.Metrics = s.Metrics
	base.Probe = s.Probe
	return base
}
