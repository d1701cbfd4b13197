package tcpsim

import (
	"fmt"
	"sort"
	"time"

	"spdier/internal/netem"
	"spdier/internal/sim"
)

// Config holds the tunables of one endpoint's TCP stack. Defaults mirror
// the Linux 3.x stack on the paper's proxy VM.
type Config struct {
	// MSS is the maximum segment payload in bytes.
	MSS int
	// InitialCwnd is the initial congestion window in segments (IW10,
	// the then-new Linux default discussed in §7 via RFC 6928).
	InitialCwnd float64
	// InitialRTO is the pre-measurement retransmission timeout
	// (RFC 6298 says 1 s, classic BSD used 3 s; the paper's fix relies
	// on this being "multiple seconds", larger than the promotion delay).
	InitialRTO time.Duration
	// MinRTO floors the computed RTO (Linux: 200 ms).
	MinRTO time.Duration
	// MaxRTO caps RTO backoff.
	MaxRTO time.Duration
	// DelayedAckTimeout is the receiver's delayed-ACK timer.
	DelayedAckTimeout time.Duration
	// RecvBuffer bounds the advertised receive window in bytes.
	RecvBuffer int
	// SlowStartAfterIdle enables Linux congestion-window validation:
	// after an idle period longer than the RTO, cwnd is reset to the
	// initial window (ssthresh and the RTT estimate are NOT touched —
	// precisely the asymmetry the paper identifies).
	SlowStartAfterIdle bool
	// ResetRTTAfterIdle is the paper's §6.2.1 proposal: on the same idle
	// trigger, also discard the RTT estimate and restore the initial
	// multi-second RTO so the radio promotion delay cannot beat it.
	ResetRTTAfterIdle bool
	// CC selects the congestion control variant: "cubic" or "reno".
	CC string
	// Metrics, when non-nil, seeds new connections from (and stores
	// results into) the shared per-destination cache (§6.2.4).
	Metrics *MetricsCache
	// Probe receives tcp_probe-style samples; may be nil.
	Probe Probe
	// TLS models an SSL handshake (two extra round trips of control
	// data) before the connection is reported established, as Chrome's
	// SPDY sessions require.
	TLS bool
	// NoIdleDemotion disables idle-restart entirely (for unit tests).
	NoIdleDemotion bool
	// DisableUndo turns off DSACK-based undo of spurious loss episodes,
	// modeling stacks whose undo machinery is ineffective — the ablation
	// that recovers the paper's full §6.2.1 claim.
	DisableUndo bool

	// --- loss-recovery fix arms (recovery.go / rack.go / frto.go).
	// Independently toggleable; all off reproduces the paper-era stack
	// bit for bit. ---

	// TLP enables tail loss probes: a probe timeout ≈ 2·srtt
	// retransmits the tail (or sends one new segment) before the longer
	// RTO can fire, converting tail-drop timeouts into ACK-driven
	// recovery and pushing the re-armed RTO past short radio stalls.
	TLP bool
	// RACK enables time-based loss detection: a segment is marked lost
	// when a segment sent at least a reordering window later has been
	// delivered, replacing pure dupACK-count thresholds.
	RACK bool
	// FRTO enables RFC 5682 spurious-timeout handling with the full
	// Eifel-style undo: when the first ACK after an RTO covers a
	// never-retransmitted segment, cwnd/ssthresh/backoff and the CC
	// variant's state are restored — the in-protocol fix for the
	// paper's §6 pathology, applied without resetting the estimator.
	FRTO bool

	// ZeroRTT enables 0-RTT resumption on QUIC-style endpoints: when the
	// metrics cache holds an entry for the destination, Connect skips
	// the handshake round trip entirely. Ignored by TCP Conns.
	ZeroRTT bool
}

// DefaultConfig returns the Linux-like defaults used by the experiments.
func DefaultConfig() Config {
	return Config{
		MSS:                1380,
		InitialCwnd:        10,
		InitialRTO:         3 * time.Second,
		MinRTO:             200 * time.Millisecond,
		MaxRTO:             120 * time.Second,
		DelayedAckTimeout:  40 * time.Millisecond,
		RecvBuffer:         256 << 10,
		SlowStartAfterIdle: true,
		CC:                 "cubic",
	}
}

// Connection lifecycle states.
const (
	stClosed = iota
	stSynSent
	stSynRcvd
	stEstablished
	stClosing
)

// Congestion state machine (RFC 5681 / Linux CA states).
const (
	caOpen = iota
	caRecovery
	caLoss
)

// Network binds TCP connections to a netem.Path, demultiplexing segments
// of many connections over the same emulated links — exactly how many
// browser connections share one radio bearer.
type Network struct {
	loop   *sim.Loop
	path   *netem.Path
	qconns []*QUICConn
	segs   freeList[Segment]
	qpkts  freeList[QUICPacket]
	// What the run's TCP connections borrow for as long as they live
	// (loan.go): the arrays of their flights and of the stream assemblers
	// attached to them.
	windows shelf[sentSeg]
	queues  shelf[expected]
	// The arrays of QUIC ACK ranges lent to the ACKs on the wire
	// (takeRanges); the slab of segments' SACK arrays (sackArray).
	ranges freeList[[quicMaxAckRanges][2]uint64]
	sacks  Slab[[maxSackBlocks][2]uint64]
	names  NameArena      // of the TCP endpoints
	pairs  Slab[connPair] // the TCP endpoints themselves
	// held lists the pairs whose records are in use, in no particular
	// order (each end knows its place, Conn.held); spare, the records
	// pairs that were over gave back (Conn.release), which NewConnPair
	// takes before carving from pairs; table, what Conns reports, one
	// record an endpoint. finished counts the pairs finish has retired:
	// a second run of its body would leave nothing else to see (an empty
	// flight shelves no array, retire clears what is clear, over is set),
	// so the count is the only witness that it runs once a pair.
	held     []*connPair
	spare    []*connPair
	table    connTable
	finished int
}

// The wire slabs' chunk caps, each the most records that fit the
// allocator's 8,192-byte class (TestWireChunkSizes fails when one more
// would fit). A Segment and a QUICPacket are 120 bytes and hold
// pointers: 68 are 8,160 bytes, 8,168 with the 8-byte header a
// pointer-bearing object over 512 bytes carries. A SACK array is 64
// bytes and a ranges array 512, neither with a pointer, so neither with
// a header: 128 and 16 are 8,192.
const wireChunk, sackChunk, rangeChunk = 68, 128, 16

// retireSeg and retirePkt take back a unit the link is done with:
// delivered and handled, or refused. They recycle it here, on the
// concrete type, where the compiler inlines the call; through freeList's
// type parameter it was an indirect call per packet. A QUIC ACK's ranges
// array goes back to the network first. With pooling off the unit is
// left as it was, so a handler that kept a pointer past its return reads
// different bytes pooled and unpooled, and the tests that compare the
// two modes see it.
func (n *Network) retireSeg(s *Segment) {
	if to := s.to; to != nil {
		to.wireIn-- // its caller then offers to's pair back (Conn.release)
	}
	if segPooling {
		s.recycle()
	}
	n.segs.put(s)
}

func (n *Network) retirePkt(p *QUICPacket) {
	if r := p.AckRanges; cap(r) == quicMaxAckRanges {
		n.ranges.put((*[quicMaxAckRanges][2]uint64)(r[:quicMaxAckRanges]))
	}
	if segPooling {
		p.recycle()
	}
	n.qpkts.put(p)
}

// takeRanges lends an ACK an empty array with room for the most ranges
// it can carry: one a retired ACK gave back, carved if none did. So a
// run holds arrays for the ACKs in flight at once, not one for every
// packet in the pool.
func (n *Network) takeRanges() [][2]uint64 { return n.ranges.get()[:0] }

// sackArray returns the empty array seg's option of the given number of
// blocks is to be written into: seg's own, or, when seg is about to
// carry blocks in one smaller than the most an option holds, a full one
// from the network's slab, which seg then keeps through recycling. An
// array costs its share of a chunk, not an object and its regrowth.
func (n *Network) sackArray(seg *Segment, blocks int) [][2]uint64 {
	if blocks > 0 && cap(seg.Sack) < maxSackBlocks {
		return n.sacks.New()[:0]
	}
	return seg.Sack[:0]
}

// LiveSegments returns the number of outstanding pool segments and QUIC
// packets together. After the loop runs idle it must be zero (negative
// values indicate a double free).
func (n *Network) LiveSegments() int { return n.segs.live + n.qpkts.live }

// Conns returns a record of every TCP endpoint created through this
// network, client then server for each pair, in the order the pairs were
// made: its name and its counters as they stand, or as they stood when
// the pair's record went back to the network. It is a copy; no record
// leads to a Conn, so none can be read after its record has been reused.
func (n *Network) Conns() []ConnStats {
	for _, p := range n.held {
		p.note()
	}
	return n.table.all()
}

// ServerInFlightBytes returns the bytes the server ends of the network's
// TCP and QUIC connections have sent and not had acknowledged (Figure
// 10's metric, the proxy's side). Of TCP it walks the pairs still held:
// a pair that gave its record back is over, and both its ends have
// nothing in flight. QUIC records are never reused; qconns lists each
// pair client then server.
func (n *Network) ServerInFlightBytes() int {
	total := 0
	for _, p := range n.held {
		total += p.server.InFlightBytes()
	}
	for i := 1; i < len(n.qconns); i += 2 {
		total += n.qconns[i].InFlightBytes()
	}
	return total
}

// HeldPairs returns the number of TCP pairs whose records the network
// holds: those still open, and those over but still reachable by a
// segment on the wire or a pending timer.
func (n *Network) HeldPairs() int { return len(n.held) }

// ReleaseRuntime frees simulation-time state a finished run no longer
// needs — the wire pools and their slabs, the shelves, the pair records
// and what any connection still open holds: queues, scratch buffers,
// application callbacks — while keeping what results read (Conns,
// QUICConns, Path). A memoized Result then retains statistics, not the
// closure graph of the whole run. A TCP connection that finished during
// the run gave all of that up then; the others retire here, the same
// way, and their counters go into the table as they stand.
func (n *Network) ReleaseRuntime() {
	for _, p := range n.held {
		for _, c := range [...]*Conn{&p.client, &p.server} {
			c.retire()
			c.cfg.Probe = nil // the run is over: no sample will be taken
		}
		p.note()
	}
	n.held, n.spare, n.pairs = nil, nil, Slab[connPair]{}
	for _, q := range n.qconns {
		q.releaseRuntime()
	}
	n.segs.free, n.segs.slab = nil, Slab[Segment]{}
	n.qpkts.free, n.qpkts.slab = nil, Slab[QUICPacket]{}
	n.ranges.free, n.ranges.slab = nil, Slab[[quicMaxAckRanges][2]uint64]{}
	n.sacks = Slab[[maxSackBlocks][2]uint64]{}
	n.windows, n.queues = shelf[sentSeg]{}, shelf[expected]{}
	n.names = NameArena{}
}

// retire takes from the endpoint what only a live connection needs: its
// flight, its out-of-order buffer, and its application hooks — with the
// assembler, handle and session graph behind them.
// Counters, sequence state and the name stay, so every accessor reads as
// before. It is called on both ends at once, by finish when the
// connection is over and by ReleaseRuntime when the run is.
func (c *Conn) retire() {
	c.inflight, c.inflCount = deque[sentSeg]{}, 0
	c.ooo = nil
	c.onEstablished, c.onDeliver, c.onClose, c.writableHook = nil, nil, nil, nil
}

// finish retires the pair at the first instant the connection is over
// for good: both applications have closed, everything either sent has
// been acknowledged, and each end holds the other's FIN. From then on
// neither end can be handed a byte it has not already delivered (the
// peer's sndNxt is acknowledged, so any arrival ends at or below
// rcvNxt), neither has anything to retransmit, and no hook has an
// occasion left: established and close fire once and have, delivery
// needs new bytes, the writable hook needs something to write to. What
// can still arrive — a stale retransmission, a second FIN — is answered
// from the counters and sequence state that stay, as it always was. A
// pair whose FIN was lost never gets here and waits for ReleaseRuntime.
// It runs once a pair: over marks both ends. The caller has checked
// that this end is closing and holds a FIN.
func (c *Conn) finish() {
	if p := c.peer; !c.over && p.finRcvd && c.Drained() && p.Drained() {
		for _, e := range [...]*Conn{c, p} {
			e.net.windows.put(e.inflight.surrender()) // empty: e is drained
			e.retire()
			e.over = true
		}
		c.net.finished++
		c.release()
	}
}

// release gives the pair's record back to its network at the first
// instant nothing can reach it any more, for NewConnPair to reuse: the
// pair is over (finish), no segment or wire duplicate addressed to
// either end is on the wire (wireIn, raised by transmit and DupPayload
// and lowered by retireSeg), and no timer of either end is pending —
// every one of them is the Conn itself under another type, so it would
// fire into whatever connection the record held by then. It is called
// where the last of the three can come true: at the end of finish,
// after a segment addressed to the pair has retired (the demuxer and a
// refused send; retireSeg itself stays small enough to inline) and as
// a retry timer fires. The counters go into the table
// as they stand; they cannot change any more. With pooling off the
// record is never reused, so no two connections of a run share an
// address (the determinism tests compare the two modes). The test of
// over is all an open connection's segments and timers pay: it inlines.
func (c *Conn) release() {
	if c.over {
		c.giveBack()
	}
}

func (c *Conn) giveBack() {
	p := c.peer
	if c.held < 0 || c.wireIn != 0 || p.wireIn != 0 || c.timerPending() || p.timerPending() {
		return
	}
	n := c.net
	pair := n.held[c.held]
	pair.note()
	last := len(n.held) - 1
	moved := n.held[last]
	moved.client.held, moved.server.held = c.held, c.held
	n.held[c.held] = moved
	n.held[last] = nil
	n.held = n.held[:last]
	c.held, p.held = -1, -1
	if segPooling {
		n.spare = append(n.spare, pair)
	}
}

// timerPending reports whether a timer of the endpoint is pending.
func (c *Conn) timerPending() bool {
	return c.synArmed || c.rtoTimer.Pending() || c.tlp.timer.Pending() || c.delayedAck.Pending()
}

// note writes both endpoints' counters into the network's table.
func (p *connPair) note() {
	t := &p.client.net.table
	*t.at(p.client.stat) = p.client.stats()
	*t.at(p.server.stat) = p.server.stats()
}

// NewNetwork installs segment demultiplexers on both directions of path.
func NewNetwork(loop *sim.Loop, path *netem.Path) *Network {
	n := &Network{
		loop:   loop,
		path:   path,
		segs:   freeList[Segment]{slab: NewSlab[Segment](wireChunk)},
		qpkts:  freeList[QUICPacket]{slab: NewSlab[QUICPacket](wireChunk)},
		ranges: freeList[[quicMaxAckRanges][2]uint64]{slab: NewSlab[[quicMaxAckRanges][2]uint64](rangeChunk)},
		sacks:  NewSlab[[maxSackBlocks][2]uint64](sackChunk),
		pairs:  NewSlab[connPair](pairChunk),
	}
	deliver := func(p netem.Payload) {
		// TCP segments and QUIC packets share the path (and may share it
		// with non-transport traffic such as the Figure 14 keep-alive
		// pinger); dispatch by concrete type, ignore anything else.
		switch v := p.(type) {
		case *Segment:
			to := v.to
			to.handleSegment(v)
			n.retireSeg(v)
			to.release()
		case *QUICPacket:
			to := v.to
			to.handlePacket(v)
			n.retirePkt(v)
		}
	}
	path.AtoB.SetReceiver(deliver)
	path.BtoA.SetReceiver(deliver)
	return n
}

// Loop returns the simulation loop.
func (n *Network) Loop() *sim.Loop { return n.loop }

// Path returns the underlying emulated path.
func (n *Network) Path() *netem.Path { return n.path }

// connPair is the one record behind a TCP connection: both endpoints
// and, when they run the built-in CUBIC, both controllers. It costs no
// allocation of its own: the network cuts it from its pair slab, so the
// allocator's size classes bear on the chunk, not on the record. Two
// 808-byte Conns and two 72-byte Cubics are 1,760 bytes; pairChunk of
// them are 28,160, 28,168 with the 8-byte header the allocator gives a
// pointer-bearing object of this size, in the 28,672-byte class: 1,792
// bytes a pair, what a lone pair cost with its header. One more pair
// would take the chunk to the 32,768 class (TestConnSize).
type connPair struct {
	client, server Conn
	cubic          [2]Cubic
}

// pairChunk caps the pair slab's chunks, sized in connPair's comment.
const pairChunk = 16

// NewConnPair creates a client endpoint (side A, the device) and server
// endpoint (side B, the proxy) wired through the network. dest keys the
// server's metrics cache. The connection is idle until client.Connect().
func (n *Network) NewConnPair(clientCfg, serverCfg Config, id, dest string) (client, server *Conn) {
	p := n.pair()
	client, server = &p.client, &p.server
	names := n.names.Cut(id, ":c", id, ":s")
	client.init(n, clientCfg, names[:len(names)/2], dest, &p.cubic[0])
	server.init(n, serverCfg, names[len(names)/2:], dest, &p.cubic[1])
	client.isClient = true
	client.peer, server.peer = server, client
	client.out, server.out = n.path.AtoB, n.path.BtoA
	client.stat, server.stat = n.table.add(client.id), n.table.add(server.id)
	client.held, server.held = int32(len(n.held)), int32(len(n.held))
	n.held = append(n.held, p)
	return client, server
}

// pair returns a zero pair record: the last one given back if any was,
// else a new one from the slab.
func (n *Network) pair() *connPair {
	k := len(n.spare) - 1
	if k < 0 {
		return n.pairs.New()
	}
	p := n.spare[k]
	n.spare[k] = nil
	n.spare = n.spare[:k]
	*p = connPair{}
	return p
}

// Conn is one endpoint of a simulated TCP connection.
type Conn struct {
	sender

	isClient bool
	// What decides when the pair's record goes back to the network
	// (release), in the padding isClient leaves: over once finish has
	// run, synArmed while a SYN or SYN-ACK retry is pending, wireIn the
	// segments and wire duplicates addressed to this end not yet retired.
	over     bool
	synArmed bool
	wireIn   int32
	peer     *Conn
	out      *netem.Link
	net      *Network

	// state, and the two hooks every connection of a run has: each is a
	// handler, so that an owner with a record per connection (the
	// browser's handle, the proxy's) registers the record itself and no
	// closure; OnEstablished and OnDeliver adapt plain functions to them.
	state         int
	onEstablished sim.Handler
	onDeliver     receiver

	// --- sender half (window, estimator and policies are in sender) ---
	sndUna    uint64
	sndNxt    uint64
	sendQueue int
	// inflight holds the unacknowledged segments, oldest first. inflCount
	// is pktsInFlight maintained: the number of deque records neither
	// lost nor sacked. It changes only in pushInflight, popInflightFront
	// and the mark helpers below them, so no site that moves a record or
	// flips a mark can forget it; the invariant checker recounts the
	// deque against it.
	inflight     deque[sentSeg]
	inflCount    int
	dupAcks      int
	recoverPoint uint64
	caState      int
	// lossAcks counts cumulative ACKs processed since the last RTO.
	// F-RTO: retransmissions beyond the first segment are held back
	// until a second ACK arrives, so a spurious timeout (originals
	// merely delayed) is detected before a go-back-N storm starts.
	lossAcks int
	// wasCwndLimited records whether the last transmission opportunity
	// was cut short by the congestion window (RFC 7661 validation).
	wasCwndLimited bool
	rtoTimer       sim.Timer
	peerWnd        int
	finSent        bool

	// --- DSACK undo state (Linux tcp_try_undo_dsack): when every
	// retransmission of a loss episode is reported back as a duplicate,
	// the episode was spurious and the pre-collapse cwnd/ssthresh are
	// restored. This is what lets ssthresh "grow back quickly" in
	// Figure 12 after a promotion-delay timeout. The snapshot itself
	// (undoCwnd/undoSsthresh) is in sender.
	undoActive  bool
	undoRetrans int
	undoEpisode int // total retransmissions in the episode
	Undos       int

	// --- loss-recovery fix-arm state (inert unless the arm is on) ---
	tlp  tlpState
	rack rackState

	// --- receiver half ---
	rcvNxt uint64
	// ooo is the out-of-order buffer: the bytes held above the hole at
	// rcvNxt, and oooBytes their count. A SACK option is its first four
	// spans.
	ooo          spanSet
	oooBytes     int
	delayedAck   sim.Timer
	segsSinceAck int
	pendingDsack bool
	stat         int32 // the endpoint's record in the network's table (Conns)
	// tsRecent is the RFC 7323 TS.Recent value: the send timestamp of
	// the last segment that advanced the in-order window; echoed on
	// every ACK so the peer samples true round trips even when a single
	// repair releases a large cumulative ACK.
	tsRecent sim.Time
	finRcvd  bool
	tlsStep  uint8 // how far the modeled TLS exchange has got (handleTLS)
	held     int32 // the pair's place in the network's held list; -1 once given back

	onClose func()

	// --- counters ---
	Retransmits      int // RTO-driven (and SACK-hole repairs inside an episode)
	FastRetransmits  int
	RACKRetransmits  int // retransmissions of RACK-marked segments
	TLPProbes        int // tail loss probes fired (retransmitted tail or new data)
	FrtoUndos        int // F-RTO spurious verdicts with full Eifel undo
	SpuriousArrivals int // duplicate data received (peer retransmitted needlessly)
	BytesRcvdApp     int64

	// tlpNewData counts TLP probes that carried new data rather than a
	// retransmission; retxWire counts wire-level retransmissions (every
	// retransmitSeg call). Together they let the invariant checker prove
	// each retransmission is attributed to exactly one cause:
	// retxWire == Retransmits + FastRetransmits + RACKRetransmits +
	// (TLPProbes - tlpNewData).
	tlpNewData int
	retxWire   int
}

// init makes a zero Conn an endpoint of n named id. cubic is room for
// its congestion controller, should it be the built-in CUBIC.
func (c *Conn) init(n *Network, cfg Config, id, dest string, cubic *Cubic) {
	c.net = n
	c.peerWnd = 64 << 10
	c.sender.init(n.loop, cfg, id, dest, cubic)
}

// The endpoint's timers. Each is the Conn itself under another type, so
// arming one stores a pointer in the loop's slot and allocates nothing.
type (
	rtoTimeout        Conn
	tlpTimeout        Conn
	delayedAckTimeout Conn
	synTimeout        Conn // client: no SYN-ACK yet, send the SYN again
	synAckTimeout     Conn // server: still in SYN_RCVD, send the SYN-ACK again
)

func (t *rtoTimeout) Call() { (*Conn)(t).onRTO() }
func (t *tlpTimeout) Call() { (*Conn)(t).onTLP() }

func (t *delayedAckTimeout) Call() {
	if c := (*Conn)(t); c.segsSinceAck > 0 {
		c.sendAck(true)
	}
}

// The two retry timers end by offering the pair's record back (release):
// nothing cancels them once the handshake is done, so one can still be
// pending when the pair is over, the last thing that could reach it.
// The other three never are: the RTO and the probe timer stop when the
// flight empties, the delayed ACK when an ACK leaves, and finish needs
// both flights empty and acknowledged.
func (t *synTimeout) Call() {
	c := (*Conn)(t)
	c.synArmed = false
	if c.state == stSynSent {
		c.sendSYN()
	}
	c.release()
}

func (t *synAckTimeout) Call() {
	c := (*Conn)(t)
	c.synArmed = false
	if c.state == stSynRcvd {
		c.transmitSynAck()
		c.armSynRetry((*synAckTimeout)(c))
	}
	c.release()
}

// armSynRetry arms the SYN or SYN-ACK retry, InitialRTO from now. No
// handle is kept: at most one is pending, and synArmed says whether.
func (c *Conn) armSynRetry(h sim.Handler) {
	c.synArmed = true
	c.loop.AfterCall(c.cfg.InitialRTO, h)
}

// receiver is where a connection's in-order bytes go: a function
// (OnDeliver) or a stream assembler (StreamAssembler.Attach).
type receiver interface{ Deliver(n int) }

type receiverFunc func(int)

func (f receiverFunc) Deliver(n int) { f(n) }

// OnEstablished registers the callback fired when the handshake (and TLS
// exchange, if configured) completes at this endpoint.
func (c *Conn) OnEstablished(fn func()) { c.OnEstablishedCall(sim.Func(fn)) }

// OnEstablishedCall is OnEstablished for a Handler.
func (c *Conn) OnEstablishedCall(h sim.Handler) { c.onEstablished = h }

// OnDeliver registers the callback fired with the count of newly
// delivered in-order application bytes at this endpoint.
func (c *Conn) OnDeliver(fn func(int)) { c.onDeliver = receiverFunc(fn) }

// OnClose registers a callback fired when the peer's FIN arrives.
func (c *Conn) OnClose(fn func()) { c.onClose = fn }

// Established reports whether the connection is fully set up.
func (c *Conn) Established() bool { return c.state == stEstablished }

// InFlightBytes returns unacknowledged bytes (Figure 10's metric).
func (c *Conn) InFlightBytes() int { return int(c.sndNxt - c.sndUna) }

// Drained reports whether the endpoint has been closed with nothing
// queued and nothing unacknowledged. Nothing but a further Write can
// change that, so InFlightBytes stays zero for good on a connection its
// application has finished with.
func (c *Conn) Drained() bool {
	return c.state == stClosing && c.sendQueue == 0 && c.sndNxt == c.sndUna
}

// BufferedBytes returns bytes written but not yet transmitted — the
// proxy-side response queue of Figure 8.
func (c *Conn) BufferedBytes() int { return c.sendQueue }

// Connect starts the client-side handshake.
func (c *Conn) Connect() {
	if !c.isClient {
		panic("tcpsim: Connect on server endpoint")
	}
	if c.state != stClosed {
		return
	}
	c.state = stSynSent
	c.sendSYN()
}

// sendSYN transmits a SYN and re-sends it every InitialRTO until the
// SYN-ACK arrives.
func (c *Conn) sendSYN() {
	syn := c.newSeg()
	syn.Flags = flagSYN
	c.transmit(syn)
	c.armSynRetry((*synTimeout)(c))
}

// Write queues n application bytes for transmission.
func (c *Conn) Write(n int) {
	if n <= 0 {
		return
	}
	if c.state == stClosed && c.isClient {
		c.Connect()
	}
	c.BytesSentApp += int64(n)
	c.maybeIdleRestart(len(c.infl()) == 0 && c.sendQueue == 0, c.InFlightBytes())
	c.sendQueue += n
	c.trySend()
}

// Close sends a FIN and flushes metrics to the cache.
func (c *Conn) Close() {
	if c.state == stClosing || c.state == stClosed {
		return
	}
	c.storeMetrics()
	c.state = stClosing
	if !c.finSent {
		c.finSent = true
		fin := c.newSeg()
		fin.Flags = flagFIN | flagACK
		fin.Ack = c.rcvNxt
		fin.Wnd = c.recvWindow()
		c.transmit(fin)
	}
}

// infl returns the live window of the inflight deque.
func (c *Conn) infl() []sentSeg { return c.inflight.live() }

// pushInflight appends a segment record.
func (c *Conn) pushInflight(s sentSeg) {
	c.inflight.push(s)
	if s.counted() {
		c.inflCount++
	}
}

// popInflightFront drops the oldest in-flight segment (it was acked).
func (c *Conn) popInflightFront() {
	if c.infl()[0].counted() {
		c.inflCount--
	}
	c.inflight.popFront()
}

// markLost flags an in-flight record lost by the given cause.
func (c *Conn) markLost(s *sentSeg, cause uint8) {
	if s.counted() {
		c.inflCount--
	}
	s.lost = true
	s.lostBy = cause
}

// clearLost takes the lost mark off an in-flight record: it is about to
// be retransmitted, or the loss declaration was withdrawn.
func (c *Conn) clearLost(s *sentSeg) {
	if s.lost && !s.sacked {
		c.inflCount++
	}
	s.lost = false
}

// markSacked records that the receiver holds an in-flight record, which
// also withdraws any lost mark.
func (c *Conn) markSacked(s *sentSeg) {
	if s.counted() {
		c.inflCount--
	}
	s.sacked = true
	s.lost = false
}

// clearLostMarks withdraws every lost mark in the flight: the episode
// that made them was spurious.
func (c *Conn) clearLostMarks() {
	fl := c.infl()
	for i := range fl {
		c.clearLost(&fl[i])
	}
}

// pktsInFlight is the number of outstanding segments not currently
// marked lost or sacked — the quantity congestion control paces against
// during loss recovery.
func (c *Conn) pktsInFlight() int { return c.inflCount }

// trySend transmits as much queued data as the congestion and receive
// windows allow. Segments marked lost by a timeout are retransmitted
// first, paced by the (slow-starting) window — Linux's loss recovery —
// then new data follows.
func (c *Conn) trySend() {
	if c.state != stEstablished && c.state != stClosing {
		return
	}
	// Loss recovery: retransmit marked-lost segments as the window opens.
	// The F-RTO window (exactly one ACK since the timeout) holds this
	// back: if the timeout was spurious, the very next ACK will cover an
	// original transmission and cancel the loss marks entirely.
	if (c.caState == caLoss && c.lossAcks != 1) || c.caState == caRecovery {
		fl := c.infl()
		for i := range fl {
			if float64(c.pktsInFlight()) >= c.cwnd {
				break
			}
			if !fl[i].lost || fl[i].sacked {
				continue
			}
			cause := fl[i].lostBy
			c.clearLost(&fl[i])
			c.retransmitSeg(&fl[i])
			c.noteRetransmit(cause)
		}
	}
	c.wasCwndLimited = false
	for c.sendQueue > 0 {
		if float64(c.pktsInFlight()) >= c.cwnd {
			c.wasCwndLimited = true
			break
		}
		payload := min(c.cfg.MSS, c.sendQueue)
		if c.InFlightBytes()+payload > c.peerWnd {
			break
		}
		c.sendNew(payload)
		c.probe(EvSend, c.InFlightBytes())
		if !c.rtoTimer.Pending() {
			c.armRTO()
		}
	}
	c.maybeArmTLP()
	c.fireWritable(c.sendQueue)
}

// newSeg allocates or recycles a segment for transmission.
func (c *Conn) newSeg() *Segment {
	if c.net != nil {
		return c.net.segs.get()
	}
	return &Segment{}
}

func (c *Conn) transmit(seg *Segment) {
	seg.From = c.id
	seg.to = c.peer
	c.peer.wireIn++
	if !c.out.Send(seg, seg.wireSize()) && c.net != nil {
		c.net.retireSeg(seg)
		c.peer.release()
	}
}

func (c *Conn) armRTO() {
	c.rtoTimer.Stop()
	c.rtoTimer = c.loop.AfterCall(c.rtt.current(), (*rtoTimeout)(c))
}

func (c *Conn) stopRTO() {
	c.rtoTimer.Stop()
}

// onRTO handles a retransmission timeout: collapse the window, back off
// the timer, retransmit the earliest unacknowledged segment. When the
// timeout is spurious — the original segments were merely stalled behind
// a radio promotion — all of this damage was for nothing, which is the
// paper's central finding.
func (c *Conn) onRTO() {
	if len(c.infl()) == 0 {
		return
	}
	c.abortTLP() // conventional timeout recovery owns the flight now
	if c.caState != caLoss {
		c.openLossEpisode()
	}
	c.caState = caLoss
	c.cwnd = 1
	c.dupAcks = 0
	c.lossAcks = 0
	c.Retransmits++

	// Mark every outstanding segment lost (Linux tcp_enter_loss):
	// the first is retransmitted immediately, the rest follow through
	// trySend as ACKs grow the window back.
	fl := c.infl()
	for i := range fl {
		if !fl[i].sacked {
			c.markLost(&fl[i], causeRTO)
		}
	}
	first := &fl[0]
	c.clearLost(first)
	c.retransmitSeg(first)
	c.probe(EvRetransmit, c.InFlightBytes())

	c.rtt.backoff()
	c.armRTO()
	if invOn {
		c.checkSender("onRTO")
	}
}

// openLossEpisode is the entry to every loss episode — timeout, fast
// retransmit or RACK: snapshot for a possible DSACK (or F-RTO) undo,
// then collapse ssthresh based on the current cwnd. The episode ends
// when the cumulative ACK passes everything sent before it.
func (c *Conn) openLossEpisode() {
	c.undoActive = true
	c.saveUndo()
	c.undoRetrans = 0
	c.undoEpisode = 0
	c.enterLoss()
	c.recoverPoint = c.sndNxt
}

// retransmitSeg puts a fresh copy of an in-flight record on the wire and
// stamps the record as retransmitted now (Karn: it can no longer yield
// an RTT sample by itself).
func (c *Conn) retransmitSeg(s *sentSeg) {
	s.retx = true
	s.sentAt = c.loop.Now()
	c.retxWire++
	if c.undoActive {
		c.undoRetrans++
		c.undoEpisode++
	}
	seg := c.dataSeg(c.newSeg(), s.seq, s.len)
	seg.Retx = true
	c.transmit(seg)
	c.lastDataSend = c.loop.Now()
}

// dataSeg returns a segment carrying payload bytes [seq, seq+n), with the
// piggybacked ACK, the window and the timestamps every data segment has.
// It fills the fresh segment it is handed rather than calling newSeg
// itself: the two together are past the inliner's budget, and apart both
// inline into the send path.
func (c *Conn) dataSeg(seg *Segment, seq uint64, n int) *Segment {
	seg.Flags = flagACK
	seg.Seq = seq
	seg.Len = n
	seg.Ack = c.rcvNxt
	seg.Wnd = c.recvWindow()
	seg.TSVal = c.loop.Now()
	seg.TSEcr = c.tsRecent
	return seg
}

// sendNew transmits the next n queued bytes as one new segment. Whether
// the windows allow it is the caller's to have checked: trySend does,
// a tail loss probe may exceed cwnd by this one segment.
func (c *Conn) sendNew(n int) {
	seg := c.dataSeg(c.newSeg(), c.sndNxt, n)
	c.sndNxt += uint64(n)
	c.sendQueue -= n
	c.net.windows.room(&c.inflight) // the flight's array is on loan from the run
	c.pushInflight(sentSeg{seq: seg.Seq, len: n, sentAt: c.loop.Now()})
	c.ackPiggybacked()
	c.transmit(seg)
	c.lastDataSend = c.loop.Now()
	c.everSent = true
}

// handleSegment is the demuxed receive entry point.
func (c *Conn) handleSegment(seg *Segment) {
	switch {
	case seg.Flags&flagSYN != 0 && seg.Flags&flagACK == 0:
		c.handleSYN()
		return
	case seg.Flags&flagSYN != 0 && seg.Flags&flagACK != 0:
		c.handleSYNACK()
		return
	}
	if seg.Flags&flagCTRL != 0 {
		c.handleTLS(seg)
		return
	}
	if c.state == stSynRcvd {
		// First non-SYN segment from the client completes our side.
		c.becomeEstablished()
	}
	if seg.Len > 0 {
		c.receiveData(seg)
		if invOn {
			c.checkReceiver("receiveData")
		}
	}
	if seg.Flags&flagACK != 0 {
		c.receiveAck(seg)
		if invOn {
			c.checkSender("receiveAck")
		}
	}
	if seg.Flags&flagFIN != 0 && !c.finRcvd {
		c.finRcvd = true
		c.sendAckNow()
		if c.onClose != nil {
			c.onClose()
		}
	}
	if c.state == stClosing && c.finRcvd {
		c.finish()
	}
}

func (c *Conn) handleSYN() {
	if c.isClient {
		return // simultaneous open not modeled
	}
	if c.state == stClosed {
		c.state = stSynRcvd
		// Retransmit the SYN-ACK until the handshake completes: if the
		// client's final ACK is lost and the application never sends
		// upstream data, this timer is the only way out of SYN_RCVD.
		c.armSynRetry((*synAckTimeout)(c))
	}
	c.transmitSynAck()
}

func (c *Conn) transmitSynAck() {
	sa := c.newSeg()
	sa.Flags = flagSYN | flagACK
	sa.Wnd = c.recvWindow()
	c.transmit(sa)
}

func (c *Conn) handleSYNACK() {
	if !c.isClient {
		return
	}
	if c.state != stSynSent {
		// Duplicate SYN-ACK: our handshake ACK was lost. Re-ACK so the
		// server can leave SYN_RCVD.
		if c.state == stEstablished || c.state == stClosing {
			ack := c.newSeg()
			ack.Flags = flagACK
			ack.Ack = c.rcvNxt
			ack.Wnd = c.recvWindow()
			c.transmit(ack)
		}
		return
	}
	c.state = stEstablished
	// Handshake ACK.
	hack := c.newSeg()
	hack.Flags = flagACK
	hack.Wnd = c.recvWindow()
	c.transmit(hack)
	if c.cfg.TLS {
		c.tlsStep = 1
		c.transmitCtrl(250) // ClientHello
		return
	}
	c.finishEstablish()
}

func (c *Conn) becomeEstablished() {
	if c.state != stSynRcvd {
		return
	}
	c.state = stEstablished
	if !c.cfg.TLS {
		c.finishEstablish()
	}
}

func (c *Conn) finishEstablish() {
	c.probe(EvEstablished, c.InFlightBytes())
	if c.onEstablished != nil {
		h := c.onEstablished
		c.onEstablished = nil
		h.Call()
	}
	c.trySend()
}

// handleTLS walks a modeled 2-RTT SSL exchange: ClientHello →
// ServerHello+cert → client Finished → server Finished. Control bytes
// ride the wire (and wake the radio) but occupy no TCP sequence space.
func (c *Conn) handleTLS(seg *Segment) {
	if c.state == stSynRcvd {
		c.state = stEstablished
	}
	if c.isClient {
		switch c.tlsStep {
		case 1: // got ServerHello+cert
			c.tlsStep = 2
			c.transmitCtrl(350) // key exchange + Finished
		case 2: // got server Finished
			c.tlsStep = 3
			c.finishEstablish()
		}
		return
	}
	// Server side.
	switch c.tlsStep {
	case 0: // got ClientHello
		c.tlsStep = 1
		c.transmitCtrl(3000) // ServerHello + certs
	case 1: // got client Finished
		c.tlsStep = 2
		c.transmitCtrl(60) // server Finished
		c.finishEstablish()
	}
}

func (c *Conn) transmitCtrl(n int) {
	seg := c.newSeg()
	seg.Flags = flagCTRL
	seg.CtrlLen = n
	c.transmit(seg)
}

func (c *Conn) recvWindow() int {
	w := c.cfg.RecvBuffer - c.oooBytes
	if w < 0 {
		w = 0
	}
	return w
}

// receiveData handles the receiver half: in-order delivery, out-of-order
// buffering with duplicate detection, delayed ACKs.
func (c *Conn) receiveData(seg *Segment) {
	end := seg.Seq + uint64(seg.Len)
	switch {
	case end <= c.rcvNxt:
		// Entirely old data: the peer retransmitted something we already
		// have. This is the observable signature of a spurious
		// retransmission; report it back as a DSACK.
		c.SpuriousArrivals++
		c.probe(EvSpurious, c.InFlightBytes())
		c.pendingDsack = true
		c.sendAckNow()
		return
	case seg.Seq > c.rcvNxt:
		// Hole: buffer and emit an immediate duplicate ACK.
		c.oooBytes += int(c.ooo.add(seg.Seq, end))
		c.sendAckNow()
		return
	}
	// In-order (possibly partially overlapping) delivery, and the buffered
	// bytes that continue from it.
	c.tsRecent = seg.TSVal
	from := c.rcvNxt
	c.rcvNxt = c.ooo.drain(end)
	c.oooBytes -= int(c.rcvNxt - end)
	advance := int(c.rcvNxt - from)
	c.BytesRcvdApp += int64(advance)
	// Schedule the ACK before notifying the application: the app may
	// react by writing (e.g. the next HTTP request), whose piggybacked
	// ACK then cancels the pending delayed ACK. Doing this after the
	// callback would leave a stale timer that later fires a duplicate
	// pure ACK — which the peer would count toward fast retransmit.
	//
	// Note RFC 5681's SHOULD for immediately ACKing gap-fills is NOT
	// implemented: the sender's NewReno inflation/deflation model is
	// calibrated against coalesced partial ACKs, and per-fill immediate
	// ACKs defeat its deflation entirely (cwnd -= 1; cwnd++ per ACK),
	// which measurably inflates recovery-time sending on bursty links.
	// What RFC 5681 makes mandatory for the sender's heuristics — that a
	// duplicate ACK is never generated by the delayed-ACK timer — is
	// enforced structurally below (the hole and duplicate branches above
	// send immediately) and audited by the peer in processDupAck.
	c.scheduleAck()
	if c.onDeliver != nil {
		c.onDeliver.Deliver(advance)
	}
}

// scheduleAck implements delayed ACKs: every second segment immediately,
// otherwise after the delayed-ACK timeout. A pending DSACK must never
// reach this path — duplicate arrivals report it with an immediate ACK,
// and sitting on it would starve the peer's undo accounting.
func (c *Conn) scheduleAck() {
	if invOn && c.pendingDsack {
		c.violateConn("scheduleAck", "delayed-ACK coalescing with a DSACK pending")
	}
	c.segsSinceAck++
	if c.segsSinceAck >= 2 {
		c.sendAckNow()
		return
	}
	if !c.delayedAck.Pending() {
		c.delayedAck = c.loop.AfterCall(c.cfg.DelayedAckTimeout, (*delayedAckTimeout)(c))
	}
}

func (c *Conn) sendAckNow() { c.sendAck(false) }

// sendAck emits a pure ACK; delayed marks it as released by the
// delayed-ACK timer rather than triggered by an arrival, so the peer's
// invariant checker can prove fast retransmit never fires off a
// coalesced ACK.
func (c *Conn) sendAck(delayed bool) {
	c.ackPiggybacked()
	seg := c.newSeg()
	seg.Flags = flagACK
	seg.Ack = c.rcvNxt
	seg.Wnd = c.recvWindow()
	seg.Dsack = c.pendingDsack
	// The SACK option of RFC 2018, ascending. The blocks are copied into
	// the segment's own recycled array: the segment is in flight while
	// this endpoint's buffer changes.
	blocks := c.ooo[:min(maxSackBlocks, len(c.ooo))]
	seg.Sack = append(c.net.sackArray(seg, len(blocks)), blocks...)
	seg.TSEcr = c.tsRecent
	seg.Delayed = delayed
	if invOn {
		c.checkSackEmitted(seg)
	}
	c.transmit(seg)
	c.pendingDsack = false
}

// ackPiggybacked resets delayed-ACK state because an ACK is about to ride
// out (either pure or on a data segment).
func (c *Conn) ackPiggybacked() {
	c.segsSinceAck = 0
	c.delayedAck.Stop()
}

// receiveAck handles the sender half: cumulative ACK processing, RTT
// sampling under Karn's rule, window growth, NewReno recovery.
func (c *Conn) receiveAck(seg *Segment) {
	if invOn {
		c.checkSackShape("receiveAck", seg)
	}
	c.peerWnd = seg.Wnd
	c.applySack(seg)
	if seg.Dsack && c.cfg.TLP && c.tlp.probing && !c.tlp.newData {
		// The duplicate the receiver reports is the probe itself: the
		// original tail arrived, so the open TLP episode is spurious and
		// must resolve without a congestion penalty. Consume the DSACK
		// here — it must not also count toward the undo bookkeeping of a
		// loss episode the probe never opened.
		c.tlp.dsacked = true
	} else if seg.Dsack && c.undoActive && !c.cfg.DisableUndo {
		c.undoRetrans--
		if c.undoRetrans <= 0 {
			c.performUndo()
		}
	}
	if invOn {
		c.checkAckValid(seg)
	}
	ack := seg.Ack
	if ack > c.sndNxt {
		ack = c.sndNxt
	}
	if ack > c.sndUna {
		c.processNewAck(ack, seg)
	} else if ack == c.sndUna && seg.Len == 0 && len(c.infl()) > 0 {
		c.processDupAck(seg)
	}
	// RACK runs after cumulative/SACK processing advanced the
	// delivered-time watermark, and before transmission so trySend can
	// repair anything it marks.
	c.rackOnAck()
	c.trySend()
}

func (c *Conn) processNewAck(ack uint64, seg *Segment) {
	ackedSegs := 0
	ackedOriginal := false
	spuriousTimeout := false
	for {
		fl := c.infl()
		if len(fl) == 0 {
			break
		}
		s := fl[0]
		if s.seq+uint64(s.len) > ack {
			break
		}
		if !s.retx {
			ackedOriginal = true
			if c.cfg.RACK {
				c.rackSeen(s.sentAt, s.seq+uint64(s.len))
			}
			if s.lost {
				// F-RTO: the ACK covers a segment we marked lost but
				// never retransmitted — the original made it through, so
				// the timeout was spurious.
				spuriousTimeout = true
			}
		} else if c.cfg.RACK && seg.TSEcr > 0 && seg.TSEcr >= s.sentAt {
			// Retransmission proven delivered by its timestamp echo
			// (RFC 8985 §6.1): it advances the delivery watermark too.
			c.rackSeen(s.sentAt, s.seq+uint64(s.len))
		}
		c.popInflightFront()
		ackedSegs++
	}
	if spuriousTimeout {
		// Stop the go-back-N: nothing was actually lost.
		c.clearLostMarks()
		if c.frtoEligible() {
			c.frtoUndo()
		}
	}
	c.sndUna = ack
	// Karn's rule (RFC 6298 §5): an ACK covering only retransmitted data
	// is ambiguous — it may acknowledge the original rather than the
	// copy — so without further evidence it must neither feed the
	// estimator nor clear the exponential backoff. A timestamp echo is
	// that further evidence (RFC 7323 §4): TSEcr names the transmission
	// that triggered the ACK, so the measured interval is one true round
	// trip regardless of retransmission — including any radio promotion
	// stall the segment sat through, which is how the paper's RTO "grows
	// large enough to accommodate the increased round trip time"
	// (§5.5.1).
	tsValid := seg.TSEcr > 0
	if ackedOriginal || tsValid {
		c.rtt.progress()
	}
	if tsValid {
		c.rtt.sample(c.loop.Now().Sub(seg.TSEcr))
	}
	c.resolveTLP(ack, seg)

	switch c.caState {
	case caOpen:
		c.growWindow(ackedSegs)
	case caRecovery:
		if ack >= c.recoverPoint {
			c.cwnd = c.ssthresh
			c.caState = caOpen
			c.dupAcks = 0
			c.cc.OnExitRecovery(c.loop.Now(), c.cwnd)
		} else {
			// NewReno partial ACK: retransmit the next hole, deflate. A
			// head already marked lost is owned by the paced recovery
			// loop in trySend — retransmitting it here as well would
			// bypass the pacing once per partial ACK, double the repair
			// machinery, and (with a receiver that correctly ACKs every
			// gap-fill immediately) flood the bad state of a bursty link
			// with unpaced copies.
			if fl := c.infl(); len(fl) > 0 && !fl[0].retx && !fl[0].lost {
				c.retransmitSeg(&fl[0])
				c.FastRetransmits++
				c.probe(EvFastRetx, c.InFlightBytes())
			}
			c.cwnd -= float64(ackedSegs)
			if c.cwnd < 1 {
				c.cwnd = 1
			}
			c.cwnd++
		}
	case caLoss:
		c.lossAcks++
		c.growWindow(ackedSegs)
		if ack >= c.recoverPoint {
			c.caState = caOpen
			c.dupAcks = 0
		}
	}

	c.probe(EvAck, c.InFlightBytes())
	if len(c.infl()) == 0 {
		c.stopRTO()
		c.abortTLP()
	} else {
		c.armRTO()
		c.maybeArmTLP()
	}
}

// applySack marks inflight segments held by the receiver and infers
// losses: an unsacked segment with sacked data above it has been passed
// over on the wire (RFC 6675 reordering threshold, simplified), so it is
// queued for retransmission through the recovery path.
//
// The flight ascends in sequence and so do the blocks, disjoint (the
// receiver copies them off its span set; the sack-shape rule holds
// both ends to it), so one merge-walk visits the records the blocks
// cover, in the order a scan of the flight per block found them: each
// block is entered by binary search above where the last one ended, and
// left at the first record that reaches past it.
func (c *Conn) applySack(ack *Segment) {
	blocks := ack.Sack
	if len(blocks) == 0 {
		return
	}
	fl := c.infl()
	i := 0
	for _, b := range blocks {
		i += sort.Search(len(fl)-i, func(k int) bool { return fl[i+k].seq >= b[0] })
		for ; i < len(fl) && fl[i].seq+uint64(fl[i].len) <= b[1]; i++ {
			sg := &fl[i]
			if sg.sacked {
				continue
			}
			c.markSacked(sg)
			// RACK delivery watermark: originals always advance it. A
			// SACKed retransmission is ambiguous under Karn's rule — the
			// SACK may be for the original — so it advances the watermark
			// only when the timestamp echo names the copy, or when a full
			// reordering window has elapsed since the copy went out
			// (Linux tcp_rack_advance's too-low-RTT guard, inverted): an
			// out-of-order ACK does not refresh tsRecent, so elapsed time
			// is the usable disambiguator for SACKed tail-loss probes.
			if c.cfg.RACK && (!sg.retx ||
				(ack.TSEcr > 0 && ack.TSEcr >= sg.sentAt) ||
				c.loop.Now().Sub(sg.sentAt) >= c.rackReoWnd()) {
				c.rackSeen(sg.sentAt, sg.seq+uint64(sg.len))
			}
		}
	}
	if c.caState == caOpen {
		return
	}
	// Loss inference only inside a recovery episode: holes below the
	// highest sacked byte — the last block's end — are marked lost so the
	// recovery loop repairs them paced by cwnd, instead of one hole per
	// RTT.
	highest := blocks[len(blocks)-1][1]
	for i := 0; i < len(fl) && fl[i].seq+uint64(fl[i].len) <= highest; i++ {
		if sg := &fl[i]; !sg.sacked && !sg.retx {
			c.markLost(sg, causeRTO)
		}
	}
}

// performUndo rolls back a loss episode after DSACKs proved every
// retransmission unnecessary (the radio promotion stalled the originals;
// nothing was lost). The congestion window is restored, but — matching
// what the paper observes in Figure 12, where ssthresh stays depressed
// after a spurious timeout and the connection crawls through congestion
// avoidance — the collapsed ssthresh is left in place. That lasting
// damage is exactly what the §6.2.1 RTT-reset fix removes.
func (c *Conn) performUndo() {
	c.undoActive = false
	c.clearLostMarks()
	if c.cwnd < c.undoCwnd {
		c.cwnd = c.undoCwnd
	}
	// A short episode (one spurious timeout plus at most one backoff)
	// undoes fully, ssthresh included — Figure 12's "ssthresh grows back
	// quickly". Longer backoff chains leave ssthresh collapsed (repeated
	// timeouts stop re-saving prior_ssthresh in Linux), which is the
	// lasting damage the §6.2.1 fix removes.
	if c.undoEpisode <= 2 && c.undoSsthresh > c.ssthresh {
		c.ssthresh = c.undoSsthresh
	}
	c.caState = caOpen
	c.dupAcks = 0
	c.Undos++
	c.probe(EvUndo, c.InFlightBytes())
	c.trySend()
}

func (c *Conn) growWindow(ackedSegs int) {
	if ackedSegs <= 0 {
		return
	}
	// Congestion window validation (RFC 7661): only grow while the
	// window was actually the limiting factor in the last transmission
	// round. Without this, cwnd grows without bound while the receive
	// window or the application caps transmission — the paper's Table 2
	// max cwnd (197 segments ≈ the client's receive buffer) reflects
	// exactly this behaviour.
	if !c.wasCwndLimited {
		return
	}
	if c.cwnd < c.ssthresh {
		// Slow start: one segment per ACKed segment.
		c.cwnd += float64(ackedSegs)
		if c.cwnd > c.ssthresh && c.caState == caOpen {
			c.cwnd = c.ssthresh + c.cc.OnAckCA(c.loop.Now(), c.ssthresh, ackedSegs, c.rtt.srtt)
		}
		return
	}
	c.cwnd += c.cc.OnAckCA(c.loop.Now(), c.cwnd, ackedSegs, c.rtt.srtt)
}

func (c *Conn) processDupAck(seg *Segment) {
	c.dupAcks++
	switch c.caState {
	case caOpen:
		if c.dupAcks >= 3 {
			c.checkNotCoalesced(seg, "fast-retransmit")
			// Fast retransmit + fast recovery.
			c.openLossEpisode()
			c.caState = caRecovery
			c.cwnd = c.ssthresh + 3
			if fl := c.infl(); len(fl) > 0 {
				c.retransmitSeg(&fl[0])
			}
			c.FastRetransmits++
			c.probe(EvFastRetx, c.InFlightBytes())
			c.armRTO()
		}
	case caRecovery:
		// Window inflation: each dup ACK signals a departed segment.
		c.cwnd++
	case caLoss:
		// Duplicate ACKs during timeout recovery mean the receiver is
		// taking delivery beyond the hole (out-of-order buffering), so
		// the hole — original and any retransmission — was lost. Repair
		// it on every third dupACK instead of waiting out the RTO
		// backoff, as SACK-based Linux recovery effectively does.
		fl := c.infl()
		if c.dupAcks%3 == 0 && len(fl) > 0 && !fl[0].sacked {
			c.checkNotCoalesced(seg, "loss-dupack-repair")
			first := &fl[0]
			// Only re-send the hole if it hasn't been retransmitted
			// within roughly one RTT — the copy may still be in flight.
			rtt := c.rtt.srtt
			if rtt <= 0 {
				rtt = c.cfg.MinRTO
			}
			if !first.retx || c.loop.Now().Sub(first.sentAt) > rtt {
				c.clearLost(first)
				c.retransmitSeg(first)
				c.FastRetransmits++
				c.probe(EvFastRetx, c.InFlightBytes())
				c.armRTO()
			}
		}
	}
}

// String renders a compact state summary for debugging.
func (c *Conn) String() string {
	return fmt.Sprintf("%s state=%d cwnd=%.1f ssthresh=%.1f una=%d nxt=%d q=%d inflight=%d",
		c.id, c.state, c.cwnd, c.ssthresh, c.sndUna, c.sndNxt, c.sendQueue, len(c.infl()))
}
