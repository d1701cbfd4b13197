package proxy

import (
	"time"

	"spdier/internal/spdy"
	"spdier/internal/trace"
	"spdier/internal/webpage"
)

// Exchange is one request and its response, from the browser writing
// the request to the last response byte landing at the client: the one
// record a request costs, on every arm. Its lifecycle — request arrived
// at the proxy, origin first byte, origin done, head landed, body landed
// — is a step each, and each wait between two steps is a sim.Handler
// derived from the record (one pointer type per step, below), so neither
// the loop's slots nor the stream assemblers hold a closure for it.
//
// The browser fills Obj and Client (and, for a page's object, the log
// entry reserved for it: LogTo), then hands the exchange to a Session's
// or an HTTPConn's ExpectRequest just before it writes the request
// bytes. Everything else is the proxy's. An exchange serves one
// request; a new request needs a zeroed one.
type Exchange struct {
	Obj    *webpage.Object
	Client Client // nil: nobody at the browser end is told

	p *Proxy
	// What carries it: a multiplexed session or a persistent HTTP
	// connection, never both.
	sess *Session
	hc   *HTTPConn

	rec      *trace.ProxyRecord
	download time.Duration // origin first byte → whole body at the proxy

	// The response on its way out. A session's pump writes it a chunk at
	// a time by priority; an HTTP connection commits it whole, in request
	// order (seq). started sits between priority and sid, in padding
	// those two leave, which keeps the record at 104 bytes and lets the
	// browser's fetch embed it and a queue link in 152 (TestRecordSizes).
	priority spdy.Priority
	started  bool
	sid      uint32
	seq      int
	headSize int // 0 until the head has been priced
	// remaining counts body bytes not yet written, inflight body writes
	// not yet landed at the client: chunks of one object may ride
	// different connections and land out of order, so the body is
	// complete when nothing remains and nothing is in flight.
	remaining int
	inflight  int
}

// Client is the browser end of an exchange. The proxy calls it through
// the client connection's stream assembler as response bytes land.
type Client interface {
	// FirstByte: the response head has been delivered client-side.
	FirstByte()
	// Done: the final body byte has been delivered client-side.
	Done()
}

// LogTo has the proxy log e's request in rec, an entry ExpectPage
// reserved for e's page, instead of one carved when the request arrives.
func (e *Exchange) LogTo(rec *trace.ProxyRecord) { e.rec = rec }

// The steps, as the handlers that wait for them.
type (
	requestArrived  Exchange // the request's last byte is at the proxy
	originFirstByte Exchange
	originDone      Exchange // the whole body is at the proxy
	headLanded      Exchange // the response head is at the client
	bodyLanded      Exchange // one body write (a DATA chunk, or HTTP's whole body) is at the client
)

// Call logs the request and asks the origin. The two origin timers are
// created one inside the other, the second when the first fires.
func (h *requestArrived) Call() {
	e := (*Exchange)(h)
	e.rec = e.p.record(e.Obj, e.rec)
	wait, download := e.p.Origin.Timing(e.Obj)
	e.download = download
	e.p.Loop.AfterCall(wait, (*originFirstByte)(e))
}

func (h *originFirstByte) Call() {
	e := (*Exchange)(h)
	e.rec.OriginFirstByte = e.p.Loop.Now()
	e.p.Loop.AfterCall(e.download, (*originDone)(e))
}

// Call hands the complete response to what carries the exchange: the
// session queues it for its pump, the HTTP connection writes it when
// its turn comes.
func (h *originDone) Call() {
	e := (*Exchange)(h)
	e.rec.OriginDone = e.p.Loop.Now()
	if e.sess != nil {
		e.sess.enqueue(e)
	} else {
		e.hc.ready(e)
	}
}

func (h *headLanded) Call() {
	if e := (*Exchange)(h); e.Client != nil {
		e.Client.FirstByte()
	}
}

func (h *bodyLanded) Call() {
	e := (*Exchange)(h)
	if s := e.sess; s != nil && s.OnClientChunk != nil {
		n, _ := s.landing.Pop()
		s.OnClientChunk(e.sid, n)
	}
	e.inflight--
	if e.remaining == 0 && e.inflight == 0 {
		e.rec.SendDone = e.p.Loop.Now()
		if e.Client != nil {
			e.Client.Done()
		}
	}
}
