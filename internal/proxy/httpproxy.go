package proxy

import (
	"spdier/internal/httpwire"
	"spdier/internal/tcpsim"
	"spdier/internal/webpage"
)

// HTTPReqSize returns the wire size of the proxied GET for obj —
// absolute-form request line plus a Chrome-like header set including
// cookies. This is the several-hundred-byte per-request overhead SPDY's
// header compression removes.
func HTTPReqSize(obj *webpage.Object) int {
	return httpwire.RequestSize(obj.Domain, obj.Path)
}

// HTTPRespHeadSize returns the wire size of the response head for obj.
func HTTPRespHeadSize(obj *webpage.Object) int {
	return httpwire.ResponseHeadSize(contentType(obj.Kind), obj.Size)
}

func contentType(k webpage.Kind) string {
	switch k {
	case webpage.KindHTML:
		return "text/html; charset=utf-8"
	case webpage.KindJS:
		return "text/javascript"
	case webpage.KindCSS:
		return "text/css"
	case webpage.KindImg:
		return "image/jpeg"
	default:
		return "text/plain"
	}
}

// HTTPConn is the proxy side of one persistent HTTP connection. Without
// pipelining (the paper's configuration — Squid's support was
// rudimentary) the client sends one request at a time. With pipelining
// enabled the client may send several, and HTTP/1.1 requires the proxy
// to return responses in request order, which is where head-of-line
// blocking comes from: a slow first object holds back finished ones.
type HTTPConn struct {
	proxy     *Proxy
	conn      *tcpsim.Conn            // proxy-side endpoint
	clientAsm *tcpsim.StreamAssembler // registered against the browser conn
	reqAsm    tcpsim.StreamAssembler  // reassembles inbound request bytes

	// Pipelined response ordering: responses must leave in request
	// order, so a fetch that finishes ahead of an earlier one waits in
	// parked for its turn. Without pipelining no fetch ever does, and the
	// map is never allocated.
	reqSeq   int
	nextSend int
	parked   map[int]*Exchange
}

// Init attaches a zero HTTPConn — a field of its owner's record of the
// connection — to the server-side endpoint. clientAsm is the assembler
// observing in-order delivery at the browser end, through which the
// exchange's Client is told.
func (h *HTTPConn) Init(p *Proxy, serverConn *tcpsim.Conn, clientAsm *tcpsim.StreamAssembler) {
	h.proxy, h.conn, h.clientAsm = p, serverConn, clientAsm
	h.reqAsm.Attach(serverConn)
}

// Conn exposes the proxy-side TCP endpoint (for probes and tests).
func (h *HTTPConn) Conn() *tcpsim.Conn { return h.conn }

// ExpectRequest registers e as the next request on this connection: when
// reqSize bytes arrive, the proxy fetches e.Obj from the origin and
// writes the response in request order. The browser must call this
// immediately before writing the request bytes, keeping the FIFO books
// consistent.
func (h *HTTPConn) ExpectRequest(e *Exchange, reqSize int) {
	e.p, e.hc = h.proxy, h
	e.seq = h.reqSeq
	h.reqSeq++
	h.reqAsm.Expect(reqSize, (*requestArrived)(e))
}

// ready takes a response complete at the proxy: it is written now if it
// is the next in request order, with any parked behind it whose turn
// that brings (HTTP/1.1 §8.1.2.2), and parked otherwise.
func (h *HTTPConn) ready(e *Exchange) {
	if e.seq != h.nextSend {
		if h.parked == nil {
			h.parked = make(map[int]*Exchange)
		}
		h.parked[e.seq] = e
		return
	}
	for {
		h.nextSend++
		h.respond(e)
		next, ok := h.parked[h.nextSend]
		if !ok {
			return
		}
		delete(h.parked, h.nextSend)
		e = next
	}
}

// respond writes head+body onto the proxy-side socket and registers the
// matching client-side delivery expectations. The whole response is
// committed to this connection at once — one body write, nothing
// remaining: per-connection FIFO, no cross-object interleaving.
func (h *HTTPConn) respond(e *Exchange) {
	e.rec.SendStart = h.proxy.Loop.Now()
	head := HTTPRespHeadSize(e.Obj)
	e.inflight = 1
	h.clientAsm.Expect(head, (*headLanded)(e))
	h.clientAsm.Expect(e.Obj.Size, (*bodyLanded)(e))
	h.conn.Write(head + e.Obj.Size)
}
