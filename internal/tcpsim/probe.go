package tcpsim

import (
	"spdier/internal/sim"
)

// ProbeEvent labels why a probe sample was taken, mirroring what the
// paper extracted from the tcp_probe kernel module and tcpdump.
//
// Append-only: the value is what a Recorder's columns store and what
// its counts are indexed by, and String's name is what every printed
// sample carries, so reordering or inserting would silently relabel
// historical traces and golden reports.
type ProbeEvent uint8

const (
	EvAck ProbeEvent = iota
	EvSend
	EvRetransmit  // RTO-driven
	EvFastRetx    // triple-dupack
	EvIdleRestart // cwnd validation after idle
	EvRTTReset    // the §6.2.1 fix firing
	EvEstablished
	EvSpurious // retransmit later proven unnecessary
	EvUndo     // DSACK proved the episode spurious; cwnd/ssthresh restored
	EvTLPProbe // tail loss probe fired (PTO before the RTO)
	EvRACKRetx // retransmission of a RACK-marked segment
	EvFRTOUndo // F-RTO verdict: timeout spurious; full Eifel undo
	numEvents
)

var eventNames = [numEvents]string{
	"ack", "send", "retransmit", "fastretx", "idlerestart", "rttreset",
	"established", "spurious", "undo", "tlpprobe", "rackretx", "frtoundo",
}

// String returns the event's tcp_probe-style name.
func (e ProbeEvent) String() string { return eventNames[e] }

// Events lists every probe event class, in code order.
func Events() []ProbeEvent {
	out := make([]ProbeEvent, numEvents)
	for i := range out {
		out[i] = ProbeEvent(i)
	}
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

// Recorder is a Probe that retains samples in struct-of-arrays columnar
// form: parallel slices with narrow element types (~34 bytes/sample
// instead of 72 for the boxed struct), with connection IDs interned.
//
// keep downsamples the two bulk event classes (EvAck, EvSend),
// retaining every keep-th one, or none when keep is 0. Rare events —
// retransmissions, idle restarts, undos, RTT resets, establishment,
// spurious arrivals — are always retained, so event counting, burst
// analysis and the figures' event ledgers are unaffected. Aggregate
// statistics (Counts, MeanCwnd, MaxCwnd) are maintained over every
// sample offered, downsampled or not, so they are exact regardless of
// keep.
type Recorder struct {
	counts [numEvents]int // indexed by event

	keep     int // retain every keep-th bulk sample; 0 retains none
	bulkSeen int // bulk samples offered, for keep selection

	// Columnar sample storage.
	at       []sim.Time
	conn     []uint16
	event    []ProbeEvent
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
	return &Recorder{keep: max(stride, 1), connIdx: make(map[string]uint16)}
}

// NewRecorderRareOnly returns a Recorder that retains no bulk (ack/send)
// samples at all. Rare events — retransmissions, idle restarts, undos,
// RTT resets, establishment, spurious arrivals — are still retained, so
// retransmission burst analysis works unchanged, and the exact aggregates
// (Counts, MeanCwnd, MaxCwnd, TotalSamples) are identical to a full
// Recorder's. This is the bounded-memory mode the streaming sweep path
// uses: aggregate-only experiments never materialize the columnar trace.
func NewRecorderRareOnly() *Recorder { return &Recorder{connIdx: make(map[string]uint16)} }

// RareOnly reports whether bulk samples are dropped entirely.
func (r *Recorder) RareOnly() bool { return r.keep == 0 }

// Sample implements Probe.
func (r *Recorder) Sample(s ProbeSample) {
	r.counts[s.Event]++
	r.total++
	r.cwndSum += s.Cwnd
	if s.Cwnd > r.cwndMax {
		r.cwndMax = s.Cwnd
	}
	if s.Event == EvAck || s.Event == EvSend {
		keep := r.keep != 0 && r.bulkSeen%r.keep == 0
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
	r.event = append(r.event, s.Event)
	r.cwnd = append(r.cwnd, float32(s.Cwnd))
	r.ssthresh = append(r.ssthresh, float32(s.Ssthresh))
	r.inflight = append(r.inflight, int32(s.InFlight))
	r.rtoMs = append(r.rtoMs, float32(s.RTOms))
	r.srttMs = append(r.srttMs, float32(s.SRTTms))
}

// Len reports the number of retained samples.
func (r *Recorder) Len() int { return len(r.at) }

// TotalSamples reports how many samples were offered, including bulk
// samples dropped by the downsampling.
func (r *Recorder) TotalSamples() int { return r.total }

// Get reassembles the i-th retained sample.
func (r *Recorder) Get(i int) ProbeSample {
	return ProbeSample{
		At:       r.at[i],
		ConnID:   r.connIDs[r.conn[i]],
		Event:    r.event[i],
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
// (exact regardless of downsampling).
func (r *Recorder) Count(ev ProbeEvent) int { return r.counts[ev] }

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
	for i := range r.at {
		if r.event[i] == ev {
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
// offered (Table 2's "Avg cwnd" row). Exact regardless of downsampling.
func (r *Recorder) MeanCwnd() float64 {
	if r.total == 0 {
		return 0
	}
	return r.cwndSum / float64(r.total)
}
