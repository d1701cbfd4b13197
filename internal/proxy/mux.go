package proxy

import (
	"fmt"
	"slices"

	"spdier/internal/h2"
	"spdier/internal/sim"
	"spdier/internal/spdy"
	"spdier/internal/tcpsim"
	"spdier/internal/webpage"
)

// chunkSize is the DATA frame payload granularity the pump uses when
// interleaving concurrent responses onto the session.
const chunkSize = 8 << 10

// sendHighWater bounds how far ahead of the transport the pump writes:
// it keeps prioritization decisions late (in the pump's queue, where they
// can still reorder) rather than early (in the kernel buffer, where they
// cannot). When the client↔proxy link is the bottleneck, responses pile
// up in the pump queue — the Figure 8 effect of SPDY "moving the
// bottleneck from the client to the proxy".
const sendHighWater = 24 << 10

// H2ConnWindow is the connection-level flow-control window the h2 proxy
// advertises via SETTINGS/WINDOW_UPDATE at session start (per-stream
// windows stay at the RFC 7540 default).
const H2ConnWindow = 1 << 20

// equalFramingWindow is the effectively-infinite window used by the
// equal-framing oracle mode: flow control never binds, so the byte
// stream is identical to SPDY's.
const equalFramingWindow = 1 << 30

// StreamID is the stream the response to obj rides. On QUIC it is also
// the transport stream the browser writes the request on.
func StreamID(obj *webpage.Object) uint32 { return uint32(obj.ID*2 + 1) }

// Session is the proxy side of one multiplexed session, whatever the
// protocol: it demultiplexes request streams, fetches from the origin,
// and schedules response frames strictly by priority with round-robin
// interleave within a class. SPDY, striped SPDY with late binding, h2
// and QUIC are the same pump; they differ in three seams chosen by the
// constructor and never changed afterwards:
//
//   - framing: how a response head is priced (the link's zlib SYN_REPLY
//     context, or an HPACK sizer) and what a DATA frame adds to its
//     payload (8 bytes, 9, or nothing on QUIC, whose packet headers the
//     transport already charges);
//   - flow control: none, or an h2.FlowController gating every DATA
//     chunk on the stream's and the connection's credit;
//   - delivery: the links added with AddLink or AddQUICLink. One TCP
//     link is a plain session. Several are the remedy §6.2 of the paper
//     proposes for the failed multi-connection experiment of §6.1 —
//     *late binding*: a chunk is bound to whichever connection is
//     currently able to transmit, instead of being pinned to the one
//     that carried its request, so a connection wedged by spurious
//     retransmissions delays only the chunks already handed to it, not
//     every pending object. A QUIC link gives each response its own
//     transport stream: a retransmission on one never delays delivery
//     on another.
//
// A seam decides sizes, admission and which assembler sees the bytes;
// it never decides order. Order is the pump's alone.
type Session struct {
	proxy *Proxy
	links []*link
	queue spdy.PriorityQueue[*Exchange]

	newHead      func(*spdy.Shelf) headSizer
	dataOverhead int
	// Shelf lends the zlib contexts of the links' SYN_REPLY pricing;
	// nil allocates them. Set it before the first link is added.
	Shelf *spdy.Shelf

	fc      *h2.FlowController // nil: no flow control
	blocked []*Exchange        // responses parked on an empty flow-control window
	// initConn and initStream are the windows fc started with; no
	// window may ever stand above them (CheckFlowConservation).
	initConn, initStream int64
	// streamIDs records every stream the session opened, for the
	// conservation audit.
	streamIDs []uint32
	// OnClientChunk, when set, fires as each DATA payload lands at the
	// client; the browser uses it to drive WINDOW_UPDATE generation. It
	// is for a session of one TCP link, set before the first request:
	// flow control cuts chunks to the credit at hand, so a landing
	// chunk's payload is known only from landing, the payloads written
	// and not yet landed — in write order, which on one byte stream is
	// landing order. (A priority queue of one class is a FIFO that does
	// not regrow.)
	OnClientChunk func(streamID uint32, payload int)
	landing       spdy.PriorityQueue[int]

	// QueuedResponses gauges the pump backlog for Figure 8 analysis.
	QueuedResponses int
}

// headSizer prices the response head (SYN_REPLY or HEADERS) for obj on
// one link, advancing that link's header-compression context.
type headSizer func(obj *webpage.Object) int

// zlibHead prices heads as SPDY does: a SYN_REPLY whose header block is
// deflated in the zlib context every header block on the connection
// shares, lent by sh.
func zlibHead(sh *spdy.Shelf) headSizer {
	oracle := sh.NewSizeOracle()
	return func(obj *webpage.Object) int {
		return oracle.ResponseSize("200 OK", contentType(obj.Kind), int64(obj.Size))
	}
}

// hpackHead prices heads the HTTP/2 way (QPACK behaves alike at this
// fidelity). It borrows nothing from the shelf.
func hpackHead(*spdy.Shelf) headSizer {
	sizer := h2.NewHeaderSizer()
	return func(obj *webpage.Object) int {
		return sizer.ResponseSize("200 OK", contentType(obj.Kind), int64(obj.Size))
	}
}

// NewSPDY returns a SPDY session: zlib-priced heads, 8-byte DATA frame
// headers, no flow control (SPDY/3 as deployed had none that bound).
func NewSPDY(p *Proxy) *Session {
	return &Session{proxy: p, newHead: zlibHead, dataOverhead: spdy.DataFrameOverhead}
}

// NewH2 returns an HTTP/2 session: HPACK-priced heads, 9-octet frame
// headers and credit-based flow control gating every DATA frame.
// equalFraming selects the differential-oracle mode, which is literally
// SPDY's framing plus windows that never bind: such a session must emit
// a byte stream identical to NewSPDY's, which is what the zero-loss
// "h2 PLT == SPDY PLT" metamorphic oracle pins — a test of the
// flow-control seam, since everything else is the same code.
func NewH2(p *Proxy, equalFraming bool) *Session {
	s := &Session{proxy: p, newHead: hpackHead, dataOverhead: h2.DataFrameOverhead,
		initConn: H2ConnWindow, initStream: h2.DefaultInitialWindow}
	if equalFraming {
		s.newHead, s.dataOverhead = zlibHead, spdy.DataFrameOverhead
		s.initConn, s.initStream = equalFramingWindow, equalFramingWindow
	}
	s.fc = h2.NewFlowController(s.initConn, s.initStream)
	return s
}

// NewQUIC returns a session for a QUIC-style transport: HPACK-priced
// heads, no per-DATA-frame overhead, no session-level flow control.
func NewQUIC(p *Proxy) *Session {
	return &Session{proxy: p, newHead: hpackHead}
}

// link is one transport connection of the session with the header
// compression context that lives on it, and the WINDOW_UPDATEs its
// client has written and the proxy has yet to take: one grant each, in
// the order their frames ride the uplink. Every frame's arrival is the
// same handler, the link under another type (grantLanded), which takes
// the oldest grant — the link's one byte stream hands them over in that
// order.
type link struct {
	carrier
	headSize headSizer
	sess     *Session
	grants   spdy.PriorityQueue[grant]
}

// grant is one WINDOW_UPDATE on its way to the proxy.
type grant struct {
	streamID  uint32
	n         int64
	connLevel bool
}

// grantLanded is a WINDOW_UPDATE frame arriving on the link.
type grantLanded link

func (h *grantLanded) Call() {
	l := (*link)(h)
	g, _ := l.grants.Pop()
	l.sess.credit(g)
}

// carrier is the delivery seam: how bytes reach one link's peer and
// which assembler reports their arrival.
type carrier interface {
	// backlog returns the bytes written but not yet transmitted; a link
	// that cannot transmit at all reports sendHighWater.
	backlog() int
	// expectRequest registers size inbound bytes on streamID.
	expectRequest(streamID uint32, size int, arrived sim.Handler)
	// send registers size bytes with the client-side assembler of
	// streamID, then writes them.
	send(streamID uint32, size int, delivered sim.Handler)
}

// tcpCarrier is a TCP connection: one in-order byte stream each way, so
// stream ids play no part in delivery.
type tcpCarrier struct {
	conn      *tcpsim.Conn
	clientAsm *tcpsim.StreamAssembler
	reqAsm    tcpsim.StreamAssembler
}

func (c *tcpCarrier) backlog() int {
	if !c.conn.Established() {
		return sendHighWater
	}
	return c.conn.BufferedBytes()
}
func (c *tcpCarrier) expectRequest(_ uint32, size int, arrived sim.Handler) {
	c.reqAsm.Expect(size, arrived)
}
func (c *tcpCarrier) send(_ uint32, size int, delivered sim.Handler) {
	c.clientAsm.Expect(size, delivered)
	c.conn.Write(size)
}

// quicCarrier is a QUIC connection: every stream has its own assembler
// at each end.
type quicCarrier struct {
	conn    *tcpsim.QUICConn
	streams *QUICStreams // client side
	reqs    *QUICStreams // proxy side
}

func (c *quicCarrier) backlog() int { return c.conn.BufferedBytes() }
func (c *quicCarrier) expectRequest(streamID uint32, size int, arrived sim.Handler) {
	c.reqs.Expect(streamID, size, arrived)
}
func (c *quicCarrier) send(streamID uint32, size int, delivered sim.Handler) {
	c.streams.Expect(streamID, size, delivered)
	c.conn.WriteStream(streamID, size)
}

// QUICStreams demultiplexes a QUICConn's per-stream delivery callback
// into per-stream assemblers, so hooks fire per stream rather than per
// connection — the receiver-side half of stream-level loss isolation.
// The map is only ever looked up by key.
type QUICStreams struct {
	asms map[uint32]*tcpsim.StreamAssembler
	net  *tcpsim.Network // lends the assemblers' queues their arrays
	// slab is what is left of the assemblers made ahead, a few at a time:
	// a connection carries a page's worth of streams or a single beacon's,
	// and every stream needs one.
	slab    []tcpsim.StreamAssembler
	slabbed int
}

// NewQUICStreams returns an empty demultiplexer for a connection of net;
// wire it with conn.OnStreamDeliver(s.Deliver).
func NewQUICStreams(net *tcpsim.Network) *QUICStreams {
	return &QUICStreams{asms: make(map[uint32]*tcpsim.StreamAssembler), net: net}
}

func (c *QUICStreams) asm(streamID uint32) *tcpsim.StreamAssembler {
	a := c.asms[streamID]
	if a == nil {
		if len(c.slab) == 0 {
			c.slabbed = min(max(4, 2*c.slabbed), 32)
			c.slab = make([]tcpsim.StreamAssembler, c.slabbed)
		}
		a, c.slab = &c.slab[0], c.slab[1:]
		a.Borrow(c.net)
		c.asms[streamID] = a
	}
	return a
}

// Expect registers the next size-byte message on one stream.
func (c *QUICStreams) Expect(streamID uint32, size int, done sim.Handler) {
	c.asm(streamID).Expect(size, done)
}

// Deliver reports n in-order bytes arriving on one stream.
func (c *QUICStreams) Deliver(streamID uint32, n int) {
	c.asm(streamID).Deliver(n)
}

// AddLink attaches the session to the server-side endpoint of a TCP
// connection and returns the link's index for ExpectRequest. clientAsm
// observes in-order delivery at the browser end; response hooks fire
// through it. The pump re-fills the socket whenever its backlog drains.
func (s *Session) AddLink(serverConn *tcpsim.Conn, clientAsm *tcpsim.StreamAssembler) int {
	c := &tcpCarrier{conn: serverConn, clientAsm: clientAsm}
	c.reqAsm.Attach(serverConn)
	serverConn.SetWritableHook(sendHighWater, s.pump)
	return s.addLink(c)
}

// AddQUICLink attaches the session to the server-side endpoint of a
// QUIC connection; clientStreams is the browser-side demultiplexer.
func (s *Session) AddQUICLink(serverConn *tcpsim.QUICConn, clientStreams *QUICStreams) int {
	c := &quicCarrier{conn: serverConn, streams: clientStreams, reqs: NewQUICStreams(clientStreams.net)}
	serverConn.OnStreamDeliver(c.reqs.Deliver)
	serverConn.SetWritableHook(sendHighWater, s.pump)
	return s.addLink(c)
}

func (s *Session) addLink(c carrier) int {
	s.links = append(s.links, &link{carrier: c, headSize: s.newHead(s.Shelf), sess: s})
	return len(s.links) - 1
}

// priceHead prices e's head on l. A header-compression context is
// per-link state — what a block costs depends on every block priced on
// that link before it — so a head is priced exactly once, on the link
// that will carry it, as soon as that link is known: at enqueue when
// the session has one link (origin-completion order), otherwise when
// the pump first binds the response (pump order).
func (e *Exchange) priceHead(l *link) {
	if e.headSize == 0 {
		e.headSize = l.headSize(e.Obj)
	}
}

// ExpectRequest registers e's inbound request of reqSize bytes on the
// given link. The browser calls this immediately before writing the
// request bytes; many requests may be outstanding simultaneously. With
// several links the response is *not* bound to the one named here.
func (s *Session) ExpectRequest(linkIdx int, e *Exchange, reqSize int, prio spdy.Priority) {
	s.adopt(e, prio)
	s.links[linkIdx].expectRequest(e.sid, reqSize, (*requestArrived)(e))
}

// adopt makes s the carrier of e.
func (s *Session) adopt(e *Exchange, prio spdy.Priority) {
	e.p, e.sess, e.priority, e.sid = s.proxy, s, prio, StreamID(e.Obj)
}

// enqueue takes a response complete at the proxy into the pump.
func (s *Session) enqueue(e *Exchange) {
	e.remaining = e.Obj.Size
	if len(s.links) == 1 {
		e.priceHead(s.links[0])
	}
	if s.fc != nil {
		s.streamIDs = append(s.streamIDs, e.sid)
	}
	s.queue.Push(e.priority, e)
	s.QueuedResponses++
	s.pump()
}

// readyLink returns the link with the shallowest unsent backlog —
// "available" in the paper's sense of having an open congestion window —
// or nil if every one is saturated.
func (s *Session) readyLink() *link {
	var best *link
	depth := sendHighWater
	for _, l := range s.links {
		if b := l.backlog(); b < depth {
			best, depth = l, b
		}
	}
	return best
}

// pump feeds the links: highest priority first, one chunk at a time,
// re-queueing unfinished responses behind their priority peers so equal
// priority responses interleave — which is why parallel downloads each
// take longer (observed in Figure 7). With flow control there is one
// extra gate: a DATA chunk may not exceed the stream's credit. The head
// is written before the gate (header frames are not flow controlled),
// and a response whose window is empty parks in blocked until the
// client's WINDOW_UPDATE arrives — HTTP/2's per-stream backpressure, the
// mechanism SPDY/3-as-deployed lacked.
func (s *Session) pump() {
	for {
		l := s.readyLink()
		if l == nil {
			return
		}
		e, ok := s.queue.Pop()
		if !ok {
			return
		}
		if !e.started {
			e.started = true
			e.rec.SendStart = s.proxy.Loop.Now()
			e.priceHead(l)
			l.send(e.sid, e.headSize, (*headLanded)(e))
		}
		n, admitted := s.admit(e)
		if !admitted {
			s.blocked = append(s.blocked, e)
			continue
		}
		e.remaining -= n
		e.inflight++
		if s.OnClientChunk != nil {
			s.landing.Push(0, n)
		}
		l.send(e.sid, n+s.dataOverhead, (*bodyLanded)(e))
		if e.remaining == 0 {
			s.QueuedResponses--
		} else {
			s.queue.Push(e.priority, e)
		}
	}
}

// admit sizes e's next DATA payload — a chunk, or what flow control
// allows of it — and debits the credit. It reports false when the
// stream's window is empty.
func (s *Session) admit(e *Exchange) (int, bool) {
	n := min(e.remaining, chunkSize)
	if s.fc == nil {
		return n, true
	}
	avail := s.fc.Avail(e.sid)
	if avail <= 0 {
		return 0, false
	}
	n = int(min(int64(n), avail))
	if err := s.fc.Consume(e.sid, int64(n)); err != nil {
		panic(fmt.Sprintf("proxy: h2 pump overdraw: %v", err))
	}
	return n, true
}

// ExpectWindowUpdate registers an inbound WINDOW_UPDATE on the given
// link: when its bytes arrive, n octets are credited to the stream (or,
// with connLevel, the connection) and any starved responses resume, in
// the order they parked; the pump re-parks those still starved. The
// browser calls this immediately before writing the frame bytes.
func (s *Session) ExpectWindowUpdate(linkIdx int, streamID uint32, n int64, connLevel bool) {
	l := s.links[linkIdx]
	l.grants.Push(0, grant{streamID, n, connLevel})
	l.expectRequest(0, h2.WindowUpdateFrameSize, (*grantLanded)(l))
}

// credit applies a WINDOW_UPDATE that has arrived.
func (s *Session) credit(g grant) {
	var err error
	if g.connLevel {
		err = s.fc.GrantConn(g.n)
	} else {
		err = s.fc.Grant(g.streamID, g.n)
	}
	if err != nil {
		panic(fmt.Sprintf("proxy: h2 window update rejected: %v", err))
	}
	for _, e := range s.blocked {
		s.queue.Push(e.priority, e)
	}
	s.blocked = s.blocked[:0]
	s.pump()
}

// CheckFlowConservation audits the credit books over every stream the
// session ever opened: each window must equal initial + granted −
// consumed, and none may stand above its initial size, since a client
// re-credits only bytes that were delivered to it. A session without
// flow control has nothing to audit.
func (s *Session) CheckFlowConservation() error {
	if s.fc == nil {
		return nil
	}
	// Stream ids recur from page to page; the books are per id.
	slices.Sort(s.streamIDs)
	s.streamIDs = slices.Compact(s.streamIDs)
	if err := s.fc.CheckConservation(s.streamIDs); err != nil {
		return err
	}
	if w := s.fc.ConnWindow(); w > s.initConn {
		return fmt.Errorf("proxy: connection window %d above its initial %d: credit granted that was never consumed", w, s.initConn)
	}
	for _, id := range s.streamIDs {
		if w := s.fc.StreamWindow(id); w > s.initStream {
			return fmt.Errorf("proxy: stream %d window %d above its initial %d: credit granted that was never consumed", id, w, s.initStream)
		}
	}
	return nil
}
