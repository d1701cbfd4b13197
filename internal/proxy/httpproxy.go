package proxy

import (
	"spdier/internal/httpwire"
	"spdier/internal/tcpsim"
	"spdier/internal/trace"
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
	// ready for its turn. Without pipelining no fetch ever does, and the
	// map is never allocated.
	reqSeq   int
	nextSend int
	ready    map[int]*pipelinedResp
}

type pipelinedResp struct {
	obj   *webpage.Object
	rec   *trace.ProxyRecord
	hooks ResponseHooks
}

// NewHTTPConn attaches a proxy handler to the server-side endpoint of a
// connection. clientAsm is the assembler observing in-order delivery at
// the browser end, through which response hooks are fired.
func NewHTTPConn(p *Proxy, serverConn *tcpsim.Conn, clientAsm *tcpsim.StreamAssembler) *HTTPConn {
	h := &HTTPConn{proxy: p, conn: serverConn, clientAsm: clientAsm}
	serverConn.OnDeliver(h.reqAsm.Deliver)
	return h
}

// Conn exposes the proxy-side TCP endpoint (for probes and tests).
func (h *HTTPConn) Conn() *tcpsim.Conn { return h.conn }

// ExpectRequest registers the next request on this connection: when
// reqSize bytes arrive, the proxy fetches obj from the origin and writes
// the response in request order. hooks fire at the client as the
// response is delivered. The browser must call this immediately before
// writing the request bytes, keeping the FIFO books consistent.
func (h *HTTPConn) ExpectRequest(obj *webpage.Object, reqSize int, hooks ResponseHooks) {
	idx := h.reqSeq
	h.reqSeq++
	h.reqAsm.Expect(reqSize, func() {
		rec := h.proxy.record(obj)
		h.proxy.Origin.Fetch(obj,
			func() { rec.OriginFirstByte = h.proxy.Loop.Now() },
			func() {
				rec.OriginDone = h.proxy.Loop.Now()
				if idx != h.nextSend {
					if h.ready == nil {
						h.ready = make(map[int]*pipelinedResp)
					}
					h.ready[idx] = &pipelinedResp{obj: obj, rec: rec, hooks: hooks}
					return
				}
				h.nextSend++
				h.respond(obj, rec, hooks)
				h.flush()
			})
	})
}

// flush writes the parked responses whose turn has come, preserving
// request order (HTTP/1.1 §8.1.2.2).
func (h *HTTPConn) flush() {
	for {
		r, ok := h.ready[h.nextSend]
		if !ok {
			return
		}
		delete(h.ready, h.nextSend)
		h.nextSend++
		h.respond(r.obj, r.rec, r.hooks)
	}
}

// respond writes head+body onto the proxy-side socket and registers the
// matching client-side delivery expectations. The whole response is
// committed to this connection at once: per-connection FIFO, no
// cross-object interleaving.
func (h *HTTPConn) respond(obj *webpage.Object, rec *trace.ProxyRecord, hooks ResponseHooks) {
	now := h.proxy.Loop.Now()
	rec.SendStart = now
	head := HTTPRespHeadSize(obj)

	h.clientAsm.Expect(head, func() {
		if hooks.OnFirstByte != nil {
			hooks.OnFirstByte()
		}
	})
	h.clientAsm.Expect(obj.Size, func() {
		rec.SendDone = h.proxy.Loop.Now()
		if hooks.OnDone != nil {
			hooks.OnDone()
		}
	})
	h.conn.Write(head + obj.Size)
}
