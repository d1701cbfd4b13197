package tcpsim

import (
	"spdier/internal/sim"
)

// ProbeEvent labels why a probe sample was taken, mirroring what the
// paper extracted from the tcp_probe kernel module and tcpdump.
type ProbeEvent string

const (
	EvAck         ProbeEvent = "ack"
	EvSend        ProbeEvent = "send"
	EvRetransmit  ProbeEvent = "retransmit"  // RTO-driven
	EvFastRetx    ProbeEvent = "fastretx"    // triple-dupack
	EvIdleRestart ProbeEvent = "idlerestart" // cwnd validation after idle
	EvRTTReset    ProbeEvent = "rttreset"    // the §6.2.1 fix firing
	EvEstablished ProbeEvent = "established"
	EvSpurious    ProbeEvent = "spurious" // retransmit later proven unnecessary
	EvUndo        ProbeEvent = "undo"     // DSACK proved the episode spurious; cwnd/ssthresh restored
	EvTLPProbe    ProbeEvent = "tlpprobe" // tail loss probe fired (PTO before the RTO)
	EvRACKRetx    ProbeEvent = "rackretx" // retransmission of a RACK-marked segment
	EvFRTOUndo    ProbeEvent = "frtoundo" // F-RTO verdict: timeout spurious; full Eifel undo
)

// evCodes assigns each event a compact code for columnar storage.
// Append-only: the code is the array index, and retained recorder
// columns store codes, so reordering or inserting would silently
// relabel historical traces and golden reports.
var evCodes = [...]ProbeEvent{
	EvAck, EvSend, EvRetransmit, EvFastRetx, EvIdleRestart,
	EvRTTReset, EvEstablished, EvSpurious, EvUndo,
	EvTLPProbe, EvRACKRetx, EvFRTOUndo,
}

// evCode is ev's index in evCodes (TestEventCodes holds the two to each
// other). It runs once per sample, so it is a switch, which compiles to
// a dispatch on the length and inline compares, and not a scan of the
// array, which called the runtime's string compare for every entry it
// passed.
func evCode(ev ProbeEvent) uint8 {
	switch ev {
	case EvAck:
		return 0
	case EvSend:
		return 1
	case EvRetransmit:
		return 2
	case EvFastRetx:
		return 3
	case EvIdleRestart:
		return 4
	case EvRTTReset:
		return 5
	case EvEstablished:
		return 6
	case EvSpurious:
		return 7
	case EvUndo:
		return 8
	case EvTLPProbe:
		return 9
	case EvRACKRetx:
		return 10
	case EvFRTOUndo:
		return 11
	}
	// Unknown events (none exist today) share a sentinel code.
	return uint8(len(evCodes))
}

func evFromCode(c uint8) ProbeEvent {
	if int(c) < len(evCodes) {
		return evCodes[c]
	}
	return ProbeEvent("unknown")
}

// Events lists every probe event class, in stable code order.
func Events() []ProbeEvent {
	out := make([]ProbeEvent, len(evCodes))
	copy(out, evCodes[:])
	return out
}

// ProbeSample is one tcp_probe-style record.
type ProbeSample struct {
	At       sim.Time
	ConnID   string
	Event    ProbeEvent
	Cwnd     float64 // segments
	Ssthresh float64 // segments
	InFlight int     // bytes outstanding (unacknowledged)
	RTOms    float64
	SRTTms   float64
}

// Probe receives samples from connections. Implementations must be cheap;
// they run inline with the event loop.
type Probe interface {
	Sample(ProbeSample)
}

// Consumer receives every sample offered to a Recorder, before any
// retention policy is applied. It lets streaming pipelines observe the
// full probe stream without the Recorder materializing it.
type Consumer interface {
	Consume(ProbeSample)
}

// Recorder is a Probe that retains samples in struct-of-arrays columnar
// form: parallel slices with narrow element types (~34 bytes/sample
// instead of ~80 for the boxed struct), with connection IDs interned.
//
// A stride > 1 additionally downsamples the two bulk event classes
// (EvAck, EvSend), retaining every stride-th one. Rare events —
// retransmissions, idle restarts, undos, RTT resets, establishment,
// spurious arrivals — are always retained, so event counting, burst
// analysis and the figures' event ledgers are unaffected. Aggregate
// statistics (Counts, MeanCwnd, MaxCwnd) are maintained over every
// sample offered, downsampled or not, so they are exact regardless of
// stride.
type Recorder struct {
	// counts is indexed by event code; the extra slot absorbs unknown
	// events. An array lookup per sample instead of a string-keyed map
	// access — Sample runs inline with the event loop.
	counts [len(evCodes) + 1]int

	stride   int  // retain every stride-th bulk sample; <=1 keeps all
	rareOnly bool // drop all bulk samples; rare events still retained
	bulkSeen int  // bulk samples offered, for stride selection

	sink Consumer // optional tee observing every sample offered

	// Columnar sample storage.
	at       []sim.Time
	conn     []uint16
	event    []uint8
	cwnd     []float32
	ssthresh []float32
	inflight []int32
	rtoMs    []float32
	srttMs   []float32

	// Connection-ID intern table. lastConn/lastCode short-circuit the
	// map lookup for the common case of consecutive samples from one
	// connection (ACK trains, send bursts).
	connIDs  []string
	connIdx  map[string]uint16
	lastConn string
	lastCode uint16

	// Exact aggregates over all samples offered.
	total   int
	cwndSum float64
	cwndMax float64
}

// NewRecorder returns an empty Recorder retaining every sample.
func NewRecorder() *Recorder { return NewRecorderStride(1) }

// NewRecorderStride returns an empty Recorder that retains every
// stride-th bulk (ack/send) sample. stride <= 1 retains everything.
func NewRecorderStride(stride int) *Recorder {
	if stride < 1 {
		stride = 1
	}
	return &Recorder{
		stride:  stride,
		connIdx: make(map[string]uint16),
	}
}

// NewRecorderRareOnly returns a Recorder that retains no bulk (ack/send)
// samples at all. Rare events — retransmissions, idle restarts, undos,
// RTT resets, establishment, spurious arrivals — are still retained, so
// retransmission burst analysis works unchanged, and the exact aggregates
// (Counts, MeanCwnd, MaxCwnd, TotalSamples) are identical to a full
// Recorder's. This is the bounded-memory mode the streaming sweep path
// uses: aggregate-only experiments never materialize the columnar trace.
func NewRecorderRareOnly() *Recorder {
	r := NewRecorderStride(1)
	r.rareOnly = true
	return r
}

// SetConsumer installs a tee that observes every sample offered,
// regardless of the retention policy. A nil consumer removes the tee.
func (r *Recorder) SetConsumer(c Consumer) { r.sink = c }

// RareOnly reports whether bulk samples are dropped entirely.
func (r *Recorder) RareOnly() bool { return r.rareOnly }

// Sample implements Probe.
func (r *Recorder) Sample(s ProbeSample) {
	code := evCode(s.Event)
	r.counts[code]++
	r.total++
	r.cwndSum += s.Cwnd
	if s.Cwnd > r.cwndMax {
		r.cwndMax = s.Cwnd
	}
	if r.sink != nil {
		r.sink.Consume(s)
	}
	if s.Event == EvAck || s.Event == EvSend {
		keep := !r.rareOnly && r.bulkSeen%r.stride == 0
		r.bulkSeen++
		if !keep {
			return
		}
	}
	ci := r.lastCode
	if s.ConnID != r.lastConn {
		var ok bool
		ci, ok = r.connIdx[s.ConnID]
		if !ok {
			ci = uint16(len(r.connIDs))
			r.connIDs = append(r.connIDs, s.ConnID)
			r.connIdx[s.ConnID] = ci
		}
		r.lastConn, r.lastCode = s.ConnID, ci
	}
	r.at = append(r.at, s.At)
	r.conn = append(r.conn, ci)
	r.event = append(r.event, code)
	r.cwnd = append(r.cwnd, float32(s.Cwnd))
	r.ssthresh = append(r.ssthresh, float32(s.Ssthresh))
	r.inflight = append(r.inflight, int32(s.InFlight))
	r.rtoMs = append(r.rtoMs, float32(s.RTOms))
	r.srttMs = append(r.srttMs, float32(s.SRTTms))
}

// Len reports the number of retained samples.
func (r *Recorder) Len() int { return len(r.at) }

// TotalSamples reports how many samples were offered, including bulk
// samples dropped by the stride.
func (r *Recorder) TotalSamples() int { return r.total }

// Stride returns the configured bulk downsampling stride.
func (r *Recorder) Stride() int { return r.stride }

// Get reassembles the i-th retained sample.
func (r *Recorder) Get(i int) ProbeSample {
	return ProbeSample{
		At:       r.at[i],
		ConnID:   r.connIDs[r.conn[i]],
		Event:    evFromCode(r.event[i]),
		Cwnd:     float64(r.cwnd[i]),
		Ssthresh: float64(r.ssthresh[i]),
		InFlight: int(r.inflight[i]),
		RTOms:    float64(r.rtoMs[i]),
		SRTTms:   float64(r.srttMs[i]),
	}
}

// Each calls fn for every retained sample in order, stopping early if fn
// returns false.
func (r *Recorder) Each(fn func(ProbeSample) bool) {
	for i := range r.at {
		if !fn(r.Get(i)) {
			return
		}
	}
}

// Count reports how many samples of the given event class were offered
// (exact regardless of stride).
func (r *Recorder) Count(ev ProbeEvent) int { return r.counts[evCode(ev)] }

// Retransmissions reports the total retransmission count across every
// cause — timeout, fast retransmit, tail loss probes and RACK-driven
// repairs — the quantity Figures 11-13 analyze. With the recovery fix
// arms off the last two classes never occur, so the total is unchanged
// from the pre-recovery accounting.
func (r *Recorder) Retransmissions() int {
	return r.Count(EvRetransmit) + r.Count(EvFastRetx) +
		r.Count(EvTLPProbe) + r.Count(EvRACKRetx)
}

// SpuriousRetransmissions reports retransmissions for which the original
// segment's ACK later arrived, proving the timeout premature.
func (r *Recorder) SpuriousRetransmissions() int { return r.Count(EvSpurious) }

// Filter returns the retained samples matching the given event.
func (r *Recorder) Filter(ev ProbeEvent) []ProbeSample {
	var out []ProbeSample
	code := evCode(ev)
	for i := range r.at {
		if r.event[i] == code {
			out = append(out, r.Get(i))
		}
	}
	return out
}

// MaxCwnd returns the largest congestion window seen (Table 2's
// "Max cwnd" row). Exact: computed over every sample offered, not just
// the retained ones.
func (r *Recorder) MaxCwnd() float64 { return r.cwndMax }

// MeanCwnd returns the average congestion window across all samples
// offered (Table 2's "Avg cwnd" row). Exact regardless of stride.
func (r *Recorder) MeanCwnd() float64 {
	if r.total == 0 {
		return 0
	}
	return r.cwndSum / float64(r.total)
}
