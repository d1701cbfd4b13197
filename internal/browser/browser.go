// Package browser models the Chrome 23 client of the paper's testbed:
// dependency-driven object discovery (JS/CSS waves with sequential
// processing), an HTTP mode with per-domain persistent-connection pools
// (6 per domain, 32 total, one outstanding request per connection, no
// pipelining) and a SPDY mode with one TLS session carrying prioritized
// concurrent streams — optionally striped over N sessions for the §6.1
// multi-connection experiment. The h2 and QUIC modes are that same
// multiplexed path with a different row of choices (muxMode). It
// produces the per-object timelines the authors collected over Chrome's
// remote debugging interface.
package browser

import (
	"fmt"
	"slices"
	"strconv"
	"time"

	"spdier/internal/h2"
	"spdier/internal/proxy"
	"spdier/internal/sim"
	"spdier/internal/spdy"
	"spdier/internal/tcpsim"
	"spdier/internal/trace"
	"spdier/internal/webpage"
)

// Mode selects the protocol the browser speaks to its proxy.
type Mode string

// Protocol modes.
const (
	ModeHTTP Mode = "http"
	ModeSPDY Mode = "spdy"
	// ModeH2 is HTTP/2-like framing over one TCP connection: HPACK-sized
	// headers and credit-based per-stream flow control.
	ModeH2 Mode = "h2"
	// ModeQUIC rides the QUIC-style transport: per-stream loss
	// isolation, connection-level recovery, optional 0-RTT resumption.
	ModeQUIC Mode = "quic"
)

// Config holds browser behaviour knobs.
type Config struct {
	Mode Mode

	// MaxConnsPerDomain and MaxTotalConns are Chrome's HTTP connection
	// budget (6 and 32).
	MaxConnsPerDomain int
	MaxTotalConns     int

	// SPDYSessions stripes SPDY over N connections with early binding
	// (requests assigned round-robin at issue time), reproducing the
	// §6.1 experiment. Normal SPDY operation is 1.
	SPDYSessions int

	// SPDYLateBinding switches striped SPDY to the remedy §6.2 proposes:
	// responses bind to whichever connection can transmit right now
	// instead of the one that carried the request.
	SPDYLateBinding bool

	// Pipelining enables HTTP/1.1 pipelining with PipelineDepth
	// outstanding requests per connection — the capability the paper
	// could not evaluate because Squid's support was rudimentary.
	Pipelining    bool
	PipelineDepth int

	// ClientTCP and ProxyTCP configure the two TCP stacks. The proxy
	// side is the data sender, so its config carries the probe, the
	// metrics cache and the idle-restart options under study.
	ClientTCP tcpsim.Config
	ProxyTCP  tcpsim.Config

	// IdleConnTimeout closes idle HTTP connections, as browsers do.
	IdleConnTimeout time.Duration

	// PageTimeout aborts a load that hasn't finished (browser stall
	// watchdog; the paper saw occasional stalls on site 2).
	PageTimeout time.Duration

	// Beacons enables the post-onLoad periodic transfers (ads,
	// analytics, refreshes) that §5.7 identifies as a trigger of
	// idle/active cycling during the user's think time.
	Beacons bool

	// H2EqualFraming makes the h2 mode price frames exactly as SPDY does
	// (shared zlib oracle, 8-byte DATA overhead) with never-binding
	// windows — the differential-oracle configuration under which h2 and
	// SPDY byte streams, and therefore PLTs, are identical.
	H2EqualFraming bool

	// QUICZeroRTT lets QUIC connections resume with 0-RTT when the
	// client's metrics cache knows the destination.
	QUICZeroRTT bool

	// Shelf lends the zlib contexts a SPDY session prices its heads
	// in, on both ends of the connection; nil allocates them.
	Shelf *spdy.Shelf
}

// DefaultConfig returns the Chrome-like defaults for a mode.
func DefaultConfig(mode Mode) Config {
	clientTCP := tcpsim.DefaultConfig()
	proxyTCP := tcpsim.DefaultConfig()
	cfg := Config{
		Mode:              mode,
		MaxConnsPerDomain: 6,
		MaxTotalConns:     32,
		SPDYSessions:      1,
		ClientTCP:         clientTCP,
		ProxyTCP:          proxyTCP,
		IdleConnTimeout:   30 * time.Second,
		PageTimeout:       55 * time.Second,
		Beacons:           true,
	}
	if mode == ModeSPDY || mode == ModeH2 {
		cfg.ClientTCP.TLS = true
		cfg.ProxyTCP.TLS = true
	}
	if mode == ModeQUIC {
		// QUIC's crypto rides the transport handshake itself; the TCP TLS
		// surcharge does not apply. Resumption is on by default.
		cfg.QUICZeroRTT = true
	}
	return cfg
}

// Browser is one simulated client device running one protocol mode.
type Browser struct {
	loop *sim.Loop
	net  *tcpsim.Network
	prox *proxy.Proxy
	cfg  Config
	rng  *sim.RNG

	// HTTP state. poolOrder keeps deterministic pump order (map
	// iteration order would make runs unreproducible).
	pools      map[string]*domainPool
	poolOrder  []*domainPool
	totalConns int
	connSeq    int
	names      tcpsim.NameArena // of the pooled connections
	// Where the pools, their connection slots and the connections'
	// handles come from: a run pays a chunk per poolChunk pools,
	// slotChunk slots or handleChunk handles, not an object each.
	poolSlab   tcpsim.Slab[domainPool]
	handleSlab tcpsim.Slab[connHandle]
	slots      tcpsim.Slab[*connHandle]
	// Where the beacons and their objects come from: two slabs, because
	// the proxy's log keeps a beacon's object and must not keep the
	// browser, which every beacon points at.
	beacons    tcpsim.Slab[beacon]
	beaconObjs tcpsim.Slab[webpage.Object]
	// Where the pages' records come from: each page's object records,
	// its Objects slice and its PageRecord are carved from the run's
	// chunk, reserved by Expect. widest is the run's largest page, the
	// size a new fetch slab is made for.
	objRecs  tcpsim.Slab[trace.ObjectRecord]
	objPtrs  tcpsim.Slab[*trace.ObjectRecord]
	pageRecs tcpsim.Slab[trace.PageRecord]
	widest   int
	// Counts over the handles in the pools, kept at the four transitions
	// (established, dispatch 0→1, response 1→0, closeConn) so that neither
	// a telemetry sample nor a full global pool walks every connection:
	// establishedConns have finished their handshake, idleConns of those
	// have no request outstanding. checkPools holds both to the walk.
	establishedConns int
	idleConns        int

	// Multiplexed-mode state: the open connections, created on first
	// use, and the round-robin cursor over them.
	muxMode muxMode
	mux     []*muxHandle
	reqSeq  int

	cur *pageLoad
}

// New creates a browser bound to a network and proxy host.
func New(loop *sim.Loop, net *tcpsim.Network, prox *proxy.Proxy, cfg Config, rng *sim.RNG) *Browser {
	return &Browser{
		loop:    loop,
		net:     net,
		prox:    prox,
		cfg:     cfg,
		rng:     rng,
		pools:   make(map[string]*domainPool),
		muxMode: cfg.muxMode(),

		poolSlab:   tcpsim.NewSlab[domainPool](poolChunk),
		handleSlab: tcpsim.NewSlab[connHandle](handleChunk),
		slots:      tcpsim.NewSlab[*connHandle](slotChunk),
		beacons:    tcpsim.NewSlab[beacon](beaconChunk),
		beaconObjs: tcpsim.NewSlab[webpage.Object](beaconObjChunk),
	}
}

// ActiveConns counts currently established HTTP connections plus
// multiplexed sessions (the paper's "42.6 concurrent TCP connections"
// statistic).
func (b *Browser) ActiveConns() int {
	n := b.establishedConns
	for _, h := range b.mux {
		if h.established {
			n++
		}
	}
	return n
}

// --- page load bookkeeping ---

// pageLoad is the browser's working record of one page while it loads.
// Only the page record and its object records outlive it in a Result;
// the record itself, its fetch slab and its revealer bits go to the next
// page once this one has drained (lend).
type pageLoad struct {
	b              *Browser
	page           *webpage.Page
	rec            *trace.PageRecord
	outstanding    int
	pendingReveals int
	finished       bool
	done           Loaded
	watchdog       sim.Timer
	// One fetch, one record and one proxy log entry per object of the
	// page, carved in discovery order: the page's requests cost no
	// object of their own. The records and log entries are the page's,
	// cut from the run's (its PageRecord and the proxy's log point into
	// them); the fetches are the browser's and serve page after page.
	fetches []fetch
	records []trace.ObjectRecord
	logs    []trace.ProxyRecord
	// revealers has bit id set when the object with that id is the parent
	// of another: whether a completed fetch has children to reveal is one
	// bit, not a walk over the page.
	revealers []uint64
}

// A Loaded is told a page's record at its onLoad, or at the watchdog's
// abort.
type Loaded interface{ Loaded(*trace.PageRecord) }

// loadedFunc adapts LoadPage's callback to Loaded; a func is
// pointer-shaped, so the adapter costs no allocation.
type loadedFunc func(*trace.PageRecord)

func (f loadedFunc) Loaded(rec *trace.PageRecord) { f(rec) }

// markRevealers sets pl.revealers to the ids of page's objects that
// reveal others.
func (pl *pageLoad) markRevealers(page *webpage.Page) {
	top := 0
	for _, o := range page.Objects {
		top = max(top, o.Parent)
	}
	bits := zeroed(pl.revealers, top/64+1, (pl.b.widest+63)/64)
	for _, o := range page.Objects {
		if o.Parent >= 0 {
			bits[o.Parent/64] |= 1 << (o.Parent % 64)
		}
	}
	pl.revealers = bits
}

// reveals reports whether the object with the given id has children.
func (pl *pageLoad) reveals(id int) bool {
	return id >= 0 && id/64 < len(pl.revealers) && pl.revealers[id/64]&(1<<(id%64)) != 0
}

// drained reports whether nothing of the page's load is left to run: no
// response on its way and no processing delay pending. Only then does no
// fetch of its slab sit in a queue, an exchange or a timer of the loop.
func (pl *pageLoad) drained() bool { return pl.outstanding == 0 && pl.pendingReveals == 0 }

// lend returns the working record for a page of n objects: the previous
// page's, zeroed, when that page has drained, else a new one. A page cut
// short by the watchdog with responses still on their way keeps its
// record and its slab, which those responses land in; the next page
// allocates its own. A slab is made for the run's largest page (Expect),
// so one lent page after page does not grow. Reuse moves no event: the
// slab is written only by the new page's discoveries, in the order they
// would write a fresh one.
func (b *Browser) lend(n int) *pageLoad {
	pl := b.cur
	if pl == nil || !pl.drained() {
		pl = new(pageLoad)
	} else if invOn {
		b.checkLent(pl)
	}
	*pl = pageLoad{b: b, fetches: zeroed(pl.fetches, n, b.widest), revealers: pl.revealers}
	return pl
}

// zeroed returns s with length n and every element zero, reusing its
// array when it holds n, else in a new one that holds at least size.
func zeroed[T any](s []T, n, size int) []T {
	if cap(s) < n {
		return make([]T, n, max(n, size))
	}
	s = s[:n]
	clear(s)
	return s
}

// fetch is one object on its way to the browser: the exchange the proxy
// drives, and the browser's own ends of it. It is its exchange's Client.
type fetch struct {
	proxy.Exchange
	b  *Browser
	pl *pageLoad // nil for a beacon: no page waits for it
	or *trace.ObjectRecord
	// The connection that carries it, by mode: bound when the request is
	// issued (mux) or when a pooled connection takes it (conn).
	mux  *muxHandle
	conn *connHandle
	// next is the fetch behind this one in its domain's queue, while it
	// waits there for a connection.
	next *fetch
}

// LoadPage begins loading page; done fires at onLoad (or watchdog abort).
// Loads must not overlap: callers space them out (60 s in the paper).
func (b *Browser) LoadPage(page *webpage.Page, done func(*trace.PageRecord)) {
	var l Loaded
	if done != nil {
		l = loadedFunc(done)
	}
	b.Load(page, l)
}

// Expect sizes the run's record stores once, from pages, the whole page
// set, before the first of them loads: their object records, Objects
// slices and PageRecords come from one chunk each, a fetch slab holds
// the largest of them, and the proxy's log every request they and their
// beacons can make. A page loaded without it, or past what it reserved,
// gets records of its own, as each page did before. The stores hand a
// page the same zero records wherever they are cut from, so Expect moves
// no event.
func (b *Browser) Expect(pages []*webpage.Page) {
	objects := 0
	for _, p := range pages {
		objects += len(p.Objects)
		b.widest = max(b.widest, len(p.Objects))
	}
	b.objRecs.Reserve(objects)
	b.objPtrs.Reserve(objects)
	b.pageRecs.Reserve(len(pages))
	requests := objects
	if b.cfg.Beacons {
		requests += len(beaconPaths) * len(pages)
	}
	b.prox.ExpectRun(requests)
}

// Load is LoadPage with a Loaded, which a caller can keep in a record
// of its own instead of a closure a page.
func (b *Browser) Load(page *webpage.Page, done Loaded) {
	n := len(page.Objects)
	pl := b.lend(n)
	pl.page, pl.done = page, done
	pl.rec = b.pageRecs.New()
	*pl.rec = trace.PageRecord{Page: page, Start: b.loop.Now(), Objects: b.objPtrs.Take(n)[:0]}
	pl.records = b.objRecs.Take(n)
	pl.logs = b.prox.ExpectPage(n)
	pl.markRevealers(page)
	b.cur = pl
	pl.watchdog = b.loop.AfterCall(b.cfg.PageTimeout, (*watchdog)(pl))
	b.discover(pl, page.Main())
}

// watchdog is a page's load timer running out: a page not finished by
// then is aborted, and its record handed over as it stands.
type watchdog pageLoad

func (w *watchdog) Call() {
	pl := (*pageLoad)(w)
	if !pl.finished {
		pl.finished = true
		pl.rec.Aborted = true
		pl.rec.OnLoad = pl.b.loop.Now()
		pl.b.afterPage(pl)
	}
}

func (b *Browser) discover(pl *pageLoad, obj *webpage.Object) {
	if pl.finished {
		return
	}
	// Each object has one parent and so is discovered once: the slabs
	// last the page.
	i := len(pl.rec.Objects)
	f, or := &pl.fetches[i], &pl.records[i]
	or.Obj, or.Discovered = obj, b.loop.Now()
	pl.rec.Objects = append(pl.rec.Objects, or)
	pl.outstanding++
	f.Obj, f.Client, f.b, f.pl, f.or = obj, f, b, pl, or
	f.LogTo(&pl.logs[i])
	b.request(f)
}

// request dispatches one object fetch to the mode's protocol machinery.
func (b *Browser) request(f *fetch) {
	switch b.cfg.Mode {
	case ModeSPDY, ModeH2, ModeQUIC:
		b.requestMux(f)
	default:
		b.requestHTTP(f)
	}
}

// FirstByte is the response head landing (proxy.Client).
func (f *fetch) FirstByte() { f.or.FirstByte = f.b.loop.Now() }

// Done is the last response byte landing (proxy.Client): the connection
// is a request lighter, and the page an object nearer onLoad.
func (f *fetch) Done() {
	b := f.b
	f.or.Done = b.loop.Now()
	if h := f.mux; h != nil {
		h.outstanding--
		if h.outstanding == 0 && b.muxMode.idleClose {
			b.armMuxIdle(h)
		}
		b.objectDone(f)
		return
	}
	h := f.conn
	h.outstanding--
	if h.outstanding == 0 {
		b.idleConns++
		h.pool.idle++
		b.armIdle(h)
	}
	b.objectDone(f)
	b.pumpAll()
	if invOn {
		b.checkPools("response")
	}
}

// objectDone counts f's object off its page and, if processing it
// reveals others, schedules that.
func (b *Browser) objectDone(f *fetch) {
	pl := f.pl
	if pl == nil {
		return
	}
	pl.outstanding--
	if !pl.finished && pl.reveals(f.Obj.ID) {
		pl.pendingReveals++
		b.loop.AfterCall(time.Duration(f.Obj.ProcessingDelay), (*reveal)(f))
	}
	b.checkDone(pl)
}

// reveal is a fetched object's processing delay running out: the
// browser discovers the objects it references, those whose
// webpage.Object.Parent is its id, in page order.
type reveal fetch

func (r *reveal) Call() {
	f := (*fetch)(r)
	pl := f.pl
	pl.pendingReveals--
	for _, o := range pl.page.Objects {
		if o.Parent == f.Obj.ID {
			f.b.discover(pl, o)
		}
	}
	f.b.checkDone(pl)
}

func (b *Browser) checkDone(pl *pageLoad) {
	if pl.finished || pl.outstanding > 0 || pl.pendingReveals > 0 {
		return
	}
	pl.finished = true
	pl.rec.OnLoad = b.loop.Now()
	pl.watchdog.Stop()
	b.afterPage(pl)
}

func (b *Browser) afterPage(pl *pageLoad) {
	if invOn {
		b.checkFlow("page end")
	}
	if b.cfg.Beacons {
		b.scheduleBeacons(pl.page)
	}
	if pl.done != nil {
		pl.done.Loaded(pl.rec)
	}
}

// beacon is one post-load transfer: a fetch no page waits for, with the
// record it is for. It is the handler of its own timer. The object is
// not part of it, nor of its slab: the proxy's log keeps the object,
// and must not keep the browser with it.
type beacon struct {
	fetch
	rec trace.ObjectRecord
}

// The beacon slabs' chunk caps, fitted to the 8,192-byte class with the
// header as the others are (TestRecordSizes): a beacon is 208 bytes, 39
// are 8,120 with the header; an object is 88, 93 are 8,192.
const beaconChunk, beaconObjChunk = 39, 93

// beaconPaths are the beacons' request paths, one per beacon of a page.
var beaconPaths = [...]string{"/beacon/0", "/beacon/1", "/beacon/2"}

func (bc *beacon) Call() {
	bc.rec.Discovered = bc.b.loop.Now()
	bc.b.request(&bc.fetch)
}

// scheduleBeacons models the periodic post-load transfers (analytics,
// ad refreshes) that keep poking the radio during think time.
func (b *Browser) scheduleBeacons(page *webpage.Page) {
	n := 2 + b.rng.Intn(2)
	bcs, objs := b.beacons.Take(n), b.beaconObjs.Take(n)
	at := b.loop.Now()
	for i := range bcs {
		at = at.Add(time.Duration(5+b.rng.Intn(14)) * time.Second)
		obj := &objs[i]
		*obj = webpage.Object{
			ID:     10000 + i,
			Kind:   webpage.KindText,
			Size:   300 + b.rng.Intn(1200),
			Domain: page.Main().Domain,
			Path:   beaconPaths[i],
		}
		bc := &bcs[i]
		bc.rec.Obj = obj
		bc.Obj, bc.Client, bc.b, bc.or = obj, &bc.fetch, b, &bc.rec
		b.loop.AtCall(at, bc)
	}
}

// --- HTTP mode ---

// domainPool is one domain's share of the connection budget: its
// connections, and the requests waiting for one in a FIFO threaded
// through the fetches themselves (fetch.next), so queueing a request
// allocates nothing — every fetch already lives in its page's slab or in
// its beacon. The record is cut from the browser's pool slab and its
// connection slots from the slot slab.
type domainPool struct {
	domain     string
	conns      []*connHandle
	head, tail *fetch
	queued     int
	// idle counts the pool's share of Browser.idleConns, kept at the same
	// transitions, so a full global pool looks for a socket to steal only
	// where there is one.
	idle int
}

// push queues f behind the pool's waiting requests.
func (p *domainPool) push(f *fetch) {
	if p.tail == nil {
		p.head = f
	} else {
		p.tail.next = f
	}
	p.tail = f
	p.queued++
}

// pop takes the request that has waited longest off the queue.
func (p *domainPool) pop() *fetch {
	f := p.head
	p.head, f.next = f.next, nil
	if p.head == nil {
		p.tail = nil
	}
	p.queued--
	return f
}

// connHandle is the browser's record of one pooled connection, and the
// only one: the assembler of the response stream and the proxy's end of
// the connection are part of it, and it is the handler of its own
// establishment and idle timer. It is cut from the browser's handle slab
// and lives as long as the run: a closed connection's handle is not
// reused.
type connHandle struct {
	b           *Browser
	pool        *domainPool
	id          string
	client      *tcpsim.Conn
	asm         tcpsim.StreamAssembler
	hc          proxy.HTTPConn
	established bool
	outstanding int // requests awaiting their response
	closed      bool
	idleTimer   sim.Timer
}

// The slabs' chunk caps, each the most records that fit an allocator
// size class with the 8-byte header a pointer-bearing object over 512
// bytes carries (TestRecordSizes fails when one more would fit). A
// handle is 232 bytes: 35 are 8,120, 8,128 with the header, in the
// 8,192-byte class; at 32, where doubling would have stopped, a chunk
// leaves 760 bytes of the class unused. A pool is 72 bytes: 113 are
// 8,144 in the same class. A slot is a pointer: 1,023 are 8,192 with
// the header, the slots of 170 pools at the default budget of six.
const handleChunk, poolChunk, slotChunk = 35, 113, 1023

// idle reports whether the connection could take a request right now
// and has none: what the global pool may reclaim.
func (h *connHandle) idle() bool { return h.established && h.outstanding == 0 && !h.closed }

func (b *Browser) pool(domain string) *domainPool {
	p, ok := b.pools[domain]
	if !ok {
		p = b.poolSlab.New()
		p.domain = domain
		b.pools[domain] = p
		b.poolOrder = append(b.poolOrder, p)
	}
	return p
}

// pumpAll services every waiting pool in deterministic order. Needed
// whenever a global connection slot frees up: the unblocked request may
// live in any domain's queue. A pool with nothing waiting has nothing to
// dispatch and no connection to open.
func (b *Browser) pumpAll() {
	for _, p := range b.poolOrder {
		if p.queued > 0 {
			b.pumpPool(p)
		}
	}
}

func (b *Browser) requestHTTP(f *fetch) {
	p := b.pool(f.Obj.Domain)
	p.push(f)
	b.pumpPool(p)
}

// pumpPool hands p's waiting requests, oldest first, to connections that
// can take one, then opens connections for those still waiting.
func (b *Browser) pumpPool(p *domainPool) {
	for p.queued > 0 {
		h := b.dispatchable(p)
		if h == nil {
			break
		}
		b.dispatch(h, p.pop())
	}
	// Open connections for queued requests not already covered by an
	// in-progress handshake, within the per-domain and global budgets.
	connecting := 0
	for _, h := range p.conns {
		if !h.established {
			connecting++
		}
	}
	for need := p.queued - connecting; need > 0; need-- {
		if len(p.conns) >= b.cfg.MaxConnsPerDomain {
			break
		}
		if b.totalConns >= b.cfg.MaxTotalConns {
			// Global pool full: steal an idle socket from another group,
			// as Chrome's socket pool does, else this domain starves.
			if !b.reclaimIdleConn(p) {
				break
			}
		}
		b.openConn(p)
	}
}

// reclaimIdleConn closes one established idle connection belonging to a
// pool with no queued work, freeing a global slot. Returns false if no
// connection is reclaimable.
func (b *Browser) reclaimIdleConn(needy *domainPool) bool {
	if b.idleConns == 0 {
		return false
	}
	for _, p := range b.poolOrder {
		if p == needy || p.idle == 0 || p.queued > 0 {
			continue
		}
		for _, h := range p.conns {
			if h.idle() {
				b.closeConn(h)
				return true
			}
		}
	}
	return false
}

// dispatchable returns the established connection with spare request
// capacity (1 without pipelining, PipelineDepth with) that has the
// fewest outstanding requests.
func (b *Browser) dispatchable(p *domainPool) *connHandle {
	capacity := 1
	if b.cfg.Pipelining {
		capacity = b.cfg.PipelineDepth
		if capacity < 2 {
			capacity = 2
		}
	}
	var best *connHandle
	for _, h := range p.conns {
		if !h.established || h.closed || h.outstanding >= capacity {
			continue
		}
		if best == nil || h.outstanding < best.outstanding {
			best = h
		}
	}
	return best
}

func (b *Browser) openConn(p *domainPool) {
	b.connSeq++
	b.totalConns++
	if p.conns == nil {
		p.conns = b.slots.Take(b.cfg.MaxConnsPerDomain)[:0] // the pool's budget: it never regrows
	}
	id := b.connName(b.connSeq, p.domain)
	client, server := b.net.NewConnPair(b.cfg.ClientTCP, b.cfg.ProxyTCP, id, "device")
	h := b.handleSlab.New()
	h.b, h.pool, h.id, h.client = b, p, id, client
	h.asm.Attach(client)
	h.hc.Init(b.prox, server, &h.asm)
	p.conns = append(p.conns, h)
	client.OnEstablishedCall((*connEstablished)(h))
	client.Connect()
}

// connName is fmt.Sprintf("h%03d.%s", seq, domain): the name of the
// browser's seq-th pooled connection in probe traces and object records.
func (b *Browser) connName(seq int, domain string) string {
	var buf [20]byte
	digits := strconv.AppendInt(buf[:0], int64(seq), 10)
	return b.names.Cut("h", "000"[min(len(digits), 3):], string(digits), ".", domain)
}

// connEstablished is a pooled connection's handshake completing.
type connEstablished connHandle

func (e *connEstablished) Call() {
	h := (*connHandle)(e)
	b, p := h.b, h.pool
	h.established = true
	b.establishedConns++
	b.idleConns++
	p.idle++
	b.armIdle(h)
	b.pumpPool(p)
	if invOn {
		b.checkPools("established")
	}
}

func (b *Browser) dispatch(h *connHandle, f *fetch) {
	if h.outstanding == 0 {
		b.idleConns--
		h.pool.idle--
	}
	h.outstanding++
	h.idleTimer.Stop()
	f.or.Requested = b.loop.Now()
	f.or.ConnID = h.id
	f.conn = h
	reqSize := proxy.HTTPReqSize(f.Obj)
	h.hc.ExpectRequest(&f.Exchange, reqSize)
	h.client.Write(reqSize)
	if invOn {
		b.checkPools("dispatch")
	}
}

func (b *Browser) armIdle(h *connHandle) {
	h.idleTimer.Stop()
	h.idleTimer = b.loop.AfterCall(b.cfg.IdleConnTimeout, (*connIdleTimeout)(h))
}

// connIdleTimeout is a pooled connection's idle timer running out.
type connIdleTimeout connHandle

func (t *connIdleTimeout) Call() {
	h := (*connHandle)(t)
	if h.outstanding > 0 || h.closed {
		return
	}
	h.b.closeConn(h)
	h.b.pumpAll()
}

// closeConn retires an idle connection; both callers (the idle timer and
// reclaimIdleConn) have checked that it is.
func (b *Browser) closeConn(h *connHandle) {
	p := h.pool
	h.closed = true
	h.client.Close()
	h.hc.Conn().Close()
	b.totalConns--
	b.establishedConns--
	b.idleConns--
	p.idle--
	for i, c := range p.conns {
		if c == h {
			p.conns = append(p.conns[:i], p.conns[i+1:]...)
			break
		}
	}
	if invOn {
		b.checkPools("close")
	}
}

// --- multiplexed modes (SPDY, h2, QUIC) ---

// userAgent is the Chrome 23 UA string every protocol mode sends.
const userAgent = "Mozilla/5.0 (Windows NT 6.1) Chrome/23.0"

// muxMode is what tells the multiplexed modes apart on the browser
// side. Everything else — opening, backlog while connecting, request
// dispatch, response hooks — is one path.
type muxMode struct {
	// newSession creates the proxy side of one session.
	newSession func(*proxy.Proxy) *proxy.Session
	// connID formats the i-th connection's id; it names the connection
	// in probe traces and in ObjectRecord.ConnID.
	connID string
	// conns is how many connections the mode opens. With shared they
	// are links of one proxy session (late binding); otherwise each is a
	// session of its own and a response returns on the connection that
	// carried its request (early binding, §6.1).
	conns  int
	shared bool
	// zlibRequests prices a request as a SYN_STREAM on the connection's
	// zlib context, numbered streamSeq+=2; +1 in issue order. Otherwise
	// requests are HPACK-priced HEADERS.
	zlibRequests bool
	// quic rides a QUICConn: each request is written on its own
	// transport stream, proxy.StreamID(obj).
	quic bool
	// idleClose closes a connection left idle for IdleConnTimeout; the
	// next request opens a fresh one.
	idleClose bool
	// windowUpdates re-credits the proxy's flow-control windows as
	// response bytes land.
	windowUpdates bool
}

func (cfg Config) muxMode() muxMode {
	switch cfg.Mode {
	case ModeH2:
		// Equal-framing oracle mode: the request bytes must match SPDY's
		// exactly, SYN_STREAM framing included, and flow control never
		// binds, so there is nothing to re-credit.
		equal := cfg.H2EqualFraming // captured alone: cfg itself must not escape on every mode's path
		return muxMode{
			newSession:    func(p *proxy.Proxy) *proxy.Session { return proxy.NewH2(p, equal) },
			connID:        "h2s%02d",
			conns:         1,
			zlibRequests:  equal,
			windowUpdates: !equal,
		}
	case ModeQUIC:
		return muxMode{newSession: proxy.NewQUIC, connID: "quic%02d", conns: 1, quic: true, idleClose: true}
	default:
		n := max(cfg.SPDYSessions, 1)
		return muxMode{newSession: proxy.NewSPDY, connID: "spdy%02d", conns: n,
			shared: cfg.SPDYLateBinding && n > 1, zlibRequests: true}
	}
}

// muxHandle is the browser end of one multiplexed connection.
type muxHandle struct {
	b    *Browser
	id   string
	sess *proxy.Session
	link int // this connection's index in sess
	// client is the device end of the connection, server the proxy's,
	// and write sends n bytes from the device. The stream id matters on
	// QUIC only, where each request/response pair rides its own
	// transport stream.
	client interface {
		OnEstablished(func())
		Connect()
		Close()
	}
	server interface{ Close() }
	write  func(streamID uint32, n int)
	// reqSize prices the request for obj on this connection, advancing
	// its header-compression context.
	reqSize     func(obj *webpage.Object) int
	established bool
	backlog     []*fetch
	outstanding int // requests awaiting their response
	idleTimer   sim.Timer

	// WINDOW_UPDATE bookkeeping: response bytes delivered client-side
	// but not yet re-credited to the proxy. Lookup-only map.
	pendingStream map[uint32]int64
	pendingConn   int64
}

func (b *Browser) requestMux(f *fetch) {
	if len(b.mux) == 0 {
		b.openMux()
	}
	// Early binding: round-robin at request-issue time (§6.1).
	h := b.mux[b.reqSeq%len(b.mux)]
	b.reqSeq++
	h.outstanding++
	h.idleTimer.Stop()
	f.mux = h
	if !h.established {
		h.backlog = append(h.backlog, f)
		return
	}
	b.sendMux(h, f)
}

// openMux opens the mode's connections and starts their handshakes;
// requests issued meanwhile wait in each handle's backlog.
func (b *Browser) openMux() {
	m := b.muxMode
	newSession := func() *proxy.Session {
		s := m.newSession(b.prox)
		s.Shelf = b.cfg.Shelf
		return s
	}
	var shared *proxy.Session
	if m.shared {
		shared = newSession()
	}
	for i := 0; i < m.conns; i++ {
		h := &muxHandle{b: b, id: fmt.Sprintf(m.connID, i), sess: shared}
		if h.sess == nil {
			h.sess = newSession()
		}
		if m.quic {
			ccfg := b.cfg.ClientTCP
			ccfg.ZeroRTT = b.cfg.QUICZeroRTT
			client, server := b.net.NewQUICPair(ccfg, b.cfg.ProxyTCP, h.id, "device")
			streams := proxy.NewQUICStreams(b.net)
			client.OnStreamDeliver(streams.Deliver)
			h.client, h.server, h.write = client, server, client.WriteStream
			h.link = h.sess.AddQUICLink(server, streams)
		} else {
			client, server := b.net.NewConnPair(b.cfg.ClientTCP, b.cfg.ProxyTCP, h.id, "device")
			asm := &tcpsim.StreamAssembler{}
			asm.Attach(client)
			h.client, h.server, h.write = client, server, func(_ uint32, n int) { client.Write(n) }
			h.link = h.sess.AddLink(server, asm)
		}
		if m.zlibRequests {
			oracle := b.cfg.Shelf.NewSizeOracle()
			h.reqSize = func(obj *webpage.Object) int {
				return oracle.RequestSize("GET", "http", obj.Domain, obj.Path, userAgent)
			}
		} else {
			sizer := h2.NewHeaderSizer()
			h.reqSize = func(obj *webpage.Object) int {
				return sizer.RequestSize("GET", "http", obj.Domain, obj.Path, userAgent)
			}
		}
		if m.windowUpdates {
			h.pendingStream = make(map[uint32]int64)
			h.sess.OnClientChunk = func(sid uint32, payload int) { b.muxConsumed(h, sid, payload) }
		}
		b.mux = append(b.mux, h)
		h.client.OnEstablished(func() {
			h.established = true
			backlog := h.backlog
			h.backlog = nil
			for _, f := range backlog {
				b.sendMux(h, f)
			}
		})
		h.client.Connect()
	}
}

func (b *Browser) sendMux(h *muxHandle, f *fetch) {
	f.or.Requested = b.loop.Now()
	f.or.ConnID = h.id
	prio := spdy.PriorityForType(string(f.Obj.Kind))
	size := h.reqSize(f.Obj)
	h.sess.ExpectRequest(h.link, &f.Exchange, size, prio)
	h.write(proxy.StreamID(f.Obj), size)
}

// armMuxIdle closes the connection after the browser's idle timeout,
// flushing transport metrics to the shared cache. The next page then
// opens a fresh connection that — with QUICZeroRTT — resumes without a
// handshake round trip: the transfer rides the very radio promotion
// the handshake used to wait out.
func (b *Browser) armMuxIdle(h *muxHandle) {
	h.idleTimer.Stop()
	h.idleTimer = b.loop.AfterCall(b.cfg.IdleConnTimeout, (*muxIdleTimeout)(h))
}

// muxIdleTimeout is a multiplexed connection's idle timer running out.
type muxIdleTimeout muxHandle

func (t *muxIdleTimeout) Call() {
	h := (*muxHandle)(t)
	b := h.b
	if h.outstanding > 0 {
		return
	}
	if invOn {
		b.checkFlow("session close")
	}
	h.client.Close()
	h.server.Close()
	b.mux = slices.DeleteFunc(b.mux, func(x *muxHandle) bool { return x == h })
}

// muxConsumed drives WINDOW_UPDATE generation: once half a stream's (or
// the connection's) window worth of DATA has landed, the browser
// re-credits the proxy with exactly the delivered bytes — the
// conservation the fuzz target and the page-end audit check.
func (b *Browser) muxConsumed(h *muxHandle, sid uint32, n int) {
	h.pendingStream[sid] += int64(n)
	h.pendingConn += int64(n)
	if p := h.pendingStream[sid]; p >= h2.DefaultInitialWindow/2 {
		h.pendingStream[sid] = 0
		h.sess.ExpectWindowUpdate(h.link, sid, p, false)
		h.write(0, h2.WindowUpdateFrameSize)
	}
	if p := h.pendingConn; p >= proxy.H2ConnWindow/2 {
		h.pendingConn = 0
		h.sess.ExpectWindowUpdate(h.link, 0, p, true)
		h.write(0, h2.WindowUpdateFrameSize)
	}
}
