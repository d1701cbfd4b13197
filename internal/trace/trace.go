// Package trace defines the measurement records the experiments analyze:
// per-object download timelines (what Chrome's remote debugging interface
// gave the authors), per-page results, proxy-side fetch/queue timings
// (Figure 8), and retransmission burst analysis over tcp_probe samples
// (Figure 13).
package trace

import (
	"sort"
	"time"

	"spdier/internal/sim"
	"spdier/internal/tcpsim"
	"spdier/internal/webpage"
)

// ObjectRecord is the lifecycle of one object at the browser, split into
// the four phases of Figure 5.
type ObjectRecord struct {
	Obj *webpage.Object

	Discovered sim.Time // browser learned it needs the object
	Requested  sim.Time // request written to the network
	FirstByte  sim.Time // first byte of the response arrived
	Done       sim.Time // last byte arrived
	ConnID     string   // which TCP connection carried it
}

// Init is the time from discovery to the request leaving the browser
// (connection setup or pool wait for HTTP; ~0 for SPDY).
func (r *ObjectRecord) Init() time.Duration { return r.Requested.Sub(r.Discovered) }

// Send approximates the time to put the request on the wire. Requests
// fit in one packet for both protocols, so this is effectively zero;
// kept for fidelity with the paper's four-way split.
func (r *ObjectRecord) Send() time.Duration { return time.Millisecond }

// Wait is request-to-first-byte — where SPDY pays its queueing penalty.
func (r *ObjectRecord) Wait() time.Duration { return r.FirstByte.Sub(r.Requested) }

// Recv is first-to-last byte.
func (r *ObjectRecord) Recv() time.Duration { return r.Done.Sub(r.FirstByte) }

// PageRecord is one page-load measurement.
type PageRecord struct {
	Page    *webpage.Page
	Start   sim.Time
	OnLoad  sim.Time // all objects complete (the onLoad() event)
	Objects []*ObjectRecord
	Aborted bool // watchdog fired before completion
}

// PLT returns the page load time.
func (p *PageRecord) PLT() time.Duration { return p.OnLoad.Sub(p.Start) }

// MeanPhase returns the average of one phase across the page's objects.
func (p *PageRecord) MeanPhase(phase func(*ObjectRecord) time.Duration) time.Duration {
	if len(p.Objects) == 0 {
		return 0
	}
	var sum time.Duration
	for _, o := range p.Objects {
		sum += phase(o)
	}
	return sum / time.Duration(len(p.Objects))
}

// ProxyRecord is the proxy-side view of one object (Figure 8): when the
// request arrived, when the origin produced its first and last byte, and
// when the proxy actually started and finished transferring the response
// toward the client — the red region whose length exposes the proxy-side
// queue that SPDY builds up.
type ProxyRecord struct {
	Obj             *webpage.Object
	ReqArrived      sim.Time
	OriginFirstByte sim.Time
	OriginDone      sim.Time
	SendStart       sim.Time
	SendDone        sim.Time
}

// OriginWait is request-arrival to origin first byte (≈14 ms avg in the
// paper).
func (r *ProxyRecord) OriginWait() time.Duration { return r.OriginFirstByte.Sub(r.ReqArrived) }

// OriginDownload is origin first-to-last byte (≈4 ms avg in the paper).
func (r *ProxyRecord) OriginDownload() time.Duration { return r.OriginDone.Sub(r.OriginFirstByte) }

// QueueDelay is the time the complete response sat at the proxy before
// transfer to the client began.
func (r *ProxyRecord) QueueDelay() time.Duration { return r.SendStart.Sub(r.OriginDone) }

// Transfer is the client-side transfer duration.
func (r *ProxyRecord) Transfer() time.Duration { return r.SendDone.Sub(r.SendStart) }

// RetxBurst is one run of temporally clustered retransmissions and the
// connections it touched (Figure 13's analysis).
type RetxBurst struct {
	Start, End sim.Time
	Count      int
	Conns      []ConnRetx // in order of first retransmission
}

// ConnRetx is one connection's retransmissions within a burst.
type ConnRetx struct {
	ID string
	N  int
}

// FindRetxBursts clusters the retransmission samples in rec: events
// separated by no more than gap belong to the same burst.
func FindRetxBursts(rec *tcpsim.Recorder, gap time.Duration) []RetxBurst {
	var events []tcpsim.ProbeSample
	rec.Each(func(s tcpsim.ProbeSample) bool {
		if s.Event == tcpsim.EvRetransmit || s.Event == tcpsim.EvFastRetx {
			events = append(events, s)
		}
		return true
	})
	sort.Slice(events, func(i, j int) bool { return events[i].At < events[j].At })
	var bursts []RetxBurst
	for _, e := range events {
		n := len(bursts)
		if n == 0 || e.At.Sub(bursts[n-1].End) > gap {
			bursts = append(bursts, RetxBurst{Start: e.At})
			n++
		}
		b := &bursts[n-1]
		b.End = e.At
		b.add(e.ConnID)
	}
	return bursts
}

// add counts one retransmission on connection id into b. A burst
// touches "a few (usually one)" connections, so a linear lookup will do.
func (b *RetxBurst) add(id string) {
	b.Count++
	for i := range b.Conns {
		if b.Conns[i].ID == id {
			b.Conns[i].N++
			return
		}
	}
	b.Conns = append(b.Conns, ConnRetx{ID: id, N: 1})
}

// SingleConnBurstFraction reports the fraction of bursts confined to one
// TCP connection — the paper observes bursts "typically affect a few
// (usually one) TCP connections".
func SingleConnBurstFraction(bursts []RetxBurst) float64 {
	if len(bursts) == 0 {
		return 0
	}
	single := 0
	for _, b := range bursts {
		if len(b.Conns) == 1 {
			single++
		}
	}
	return float64(single) / float64(len(bursts))
}
