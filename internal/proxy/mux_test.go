package proxy

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"spdier/internal/h2"
	"spdier/internal/sim"
	"spdier/internal/spdy"
	"spdier/internal/tcpsim"
	"spdier/internal/webpage"
)

// construction is one way of putting a Session together; the shared
// tests run over all of them.
type construction struct {
	name  string
	new   func(*Proxy) *Session
	links int
	quic  bool
	// recredit makes the client return every DATA payload's credit as it
	// lands, so flow control paces the session without stalling it.
	recredit bool
}

var constructions = []construction{
	{name: "spdy", new: NewSPDY, links: 1},
	{name: "spdy×3-late-bound", new: NewSPDY, links: 3},
	{name: "h2", new: func(p *Proxy) *Session { return NewH2(p, false) }, links: 1, recredit: true},
	{name: "h2-equal-framing", new: func(p *Proxy) *Session { return NewH2(p, true) }, links: 1},
	{name: "quic", new: NewQUIC, links: 1, quic: true},
}

// muxRig is an established session with the client end of each link.
type muxRig struct {
	w     *world
	sess  *Session
	write []func(streamID uint32, n int) // client-side write, per link
	tcp   []*tcpsim.Conn                 // client endpoints of the TCP links
	quic  *tcpsim.QUICConn               // client endpoint of the QUIC link
	reqs  int
}

// dialMux builds c's session over fresh connections and runs their
// handshakes.
func dialMux(t *testing.T, w *world, c construction) *muxRig {
	t.Helper()
	r := &muxRig{w: w, sess: c.new(w.prox)}
	cfg := tcpsim.DefaultConfig()
	for i := 0; i < c.links; i++ {
		id := fmt.Sprintf("%s-%d", c.name, i)
		if c.quic {
			client, server := w.net.NewQUICPair(cfg, cfg, id, "dev")
			streams := NewQUICStreams(w.net)
			client.OnStreamDeliver(streams.Deliver)
			r.sess.AddQUICLink(server, streams)
			r.quic, r.write = client, append(r.write, client.WriteStream)
			client.Connect()
			continue
		}
		client, server := w.net.NewConnPair(cfg, cfg, id, "dev")
		asm := &tcpsim.StreamAssembler{}
		client.OnDeliver(asm.Deliver)
		r.sess.AddLink(server, asm)
		r.tcp, r.write = append(r.tcp, client), append(r.write, func(_ uint32, n int) { client.Write(n) })
		client.Connect()
	}
	if c.recredit {
		r.sess.OnClientChunk = func(sid uint32, n int) {
			r.sess.ExpectWindowUpdate(0, sid, int64(n), false)
			r.write[0](0, h2.WindowUpdateFrameSize)
			r.sess.ExpectWindowUpdate(0, 0, int64(n), true)
			r.write[0](0, h2.WindowUpdateFrameSize)
		}
	}
	w.loop.Run(w.loop.Now().Add(time.Second))
	for _, conn := range r.tcp {
		if !conn.Established() {
			t.Fatal("handshake failed")
		}
	}
	return r
}

// request issues a 100-byte request for o, round-robin over the links;
// c, if not nil, is told of the response.
func (r *muxRig) request(o *webpage.Object, prio spdy.Priority, c Client) {
	r.requestOn(r.reqs%len(r.write), o, prio, c)
}

func (r *muxRig) requestOn(link int, o *webpage.Object, prio spdy.Priority, c Client) {
	r.reqs++
	r.sess.ExpectRequest(link, &Exchange{Obj: o, Client: c}, 100, prio)
	r.write[link](StreamID(o), 100)
}

func (r *muxRig) run(d time.Duration) { r.w.loop.Run(r.w.loop.Now().Add(d)) }

// eachConstruction runs fn as a subtest per construction, each on its
// own world with the given downlink.
func eachConstruction(t *testing.T, seed uint64, downBPS int64, fn func(t *testing.T, r *muxRig)) {
	for _, c := range constructions {
		t.Run(c.name, func(t *testing.T) {
			fn(t, dialMux(t, newWorld(seed, downBPS), c))
		})
	}
}

func TestMuxPriorityOrdering(t *testing.T) {
	// On a slow downlink, a high-priority response requested after three
	// bulk ones must still finish first.
	eachConstruction(t, 3, 1_000_000, func(t *testing.T, r *muxRig) {
		var order []int
		request := func(o *webpage.Object, prio spdy.Priority) {
			r.request(o, prio, hooks{done: func() { order = append(order, o.ID) }})
		}
		for i := 1; i <= 3; i++ {
			request(obj(i, 300_000, webpage.KindImg), 5)
		}
		r.run(500 * time.Millisecond)
		request(obj(99, 4_000, webpage.KindHTML), 0)
		r.run(60 * time.Second)
		if len(order) != 4 {
			t.Fatalf("completions %v", order)
		}
		if order[0] != 99 {
			t.Fatalf("priority 0 did not preempt bulk: %v", order)
		}
		if err := r.sess.CheckFlowConservation(); err != nil {
			t.Fatal(err)
		}
	})
}

func TestMuxInterleavesEqualPriority(t *testing.T) {
	// Two equal-priority objects requested together should finish close
	// to each other (round-robin), not strictly one after the other.
	eachConstruction(t, 4, 2_000_000, func(t *testing.T, r *muxRig) {
		var done []sim.Time
		for i := 1; i <= 2; i++ {
			r.request(obj(i, 200_000, webpage.KindImg), 4,
				hooks{done: func() { done = append(done, r.w.loop.Now()) }})
		}
		r.run(60 * time.Second)
		if len(done) != 2 {
			t.Fatalf("completions %d", len(done))
		}
		gap := done[1].Sub(done[0])
		// Serialized service would separate them by a full object time
		// (200KB at 2Mbit/s ≈ 800ms); interleave keeps the gap under
		// half of that, even with three links' worth of socket backlog
		// already committed behind the pump.
		if gap > 400*time.Millisecond {
			t.Fatalf("no interleave: gap %v", gap)
		}
	})
}

func TestMuxQueueGauge(t *testing.T) {
	eachConstruction(t, 5, 500_000, func(t *testing.T, r *muxRig) { // very slow downlink
		for i := 1; i <= 5; i++ {
			r.request(obj(i, 100_000, webpage.KindImg), 4, nil)
		}
		r.run(2 * time.Second)
		if r.sess.QueuedResponses < 2 {
			t.Fatalf("no proxy-side queueing on a slow link: %d", r.sess.QueuedResponses)
		}
		r.run(60 * time.Second)
		if r.sess.QueuedResponses != 0 {
			t.Fatalf("queue did not drain: %d", r.sess.QueuedResponses)
		}
	})
}

func TestLateBindingSpreadsChunks(t *testing.T) {
	r := dialMux(t, newWorld(6, 4_000_000), constructions[1])
	completed := 0
	for i := 1; i <= 6; i++ {
		r.request(obj(i, 150_000, webpage.KindImg), 4, hooks{done: func() { completed++ }})
	}
	r.run(60 * time.Second)
	if completed != 6 {
		t.Fatalf("completed %d of 6", completed)
	}
	// Late binding must have used more than one downstream connection.
	used := 0
	for _, c := range r.tcp {
		if c.BytesRcvdApp > 0 {
			used++
		}
	}
	if used < 2 {
		t.Fatalf("responses pinned to %d connection(s)", used)
	}
}

// headLog records, per object id, the link a response head was priced
// on and the link its bytes were first written to.
type headLog struct{ priced, sent map[int]int }

// loggingCarrier notes the link each stream's first write — its head —
// went out on.
type loggingCarrier struct {
	carrier
	idx int
	log *headLog
}

func (c loggingCarrier) send(streamID uint32, size int, delivered sim.Handler) {
	id := int(streamID-1) / 2
	if _, seen := c.log.sent[id]; !seen {
		c.log.sent[id] = c.idx
	}
	c.carrier.send(streamID, size, delivered)
}

// TestLateBindingPricesHeadOnBoundLink: a header-compression context
// belongs to a link, so a late-bound response's head must be priced on
// the link the pump binds it to — not the link that carried its request.
func TestLateBindingPricesHeadOnBoundLink(t *testing.T) {
	r := dialMux(t, newWorld(7, 4_000_000), constructions[1])
	log := &headLog{priced: map[int]int{}, sent: map[int]int{}}
	for i, l := range r.sess.links {
		price := l.headSize
		l.headSize = func(o *webpage.Object) int {
			if _, twice := log.priced[o.ID]; twice {
				t.Errorf("object %d priced twice", o.ID)
			}
			log.priced[o.ID] = i
			return price(o)
		}
		l.carrier = loggingCarrier{l.carrier, i, log}
	}
	// Every request arrives on link 0; the first responses fill it.
	const n = 8
	for i := 1; i <= n; i++ {
		r.requestOn(0, obj(i, 60_000, webpage.KindImg), 4, nil)
	}
	r.run(60 * time.Second)
	elsewhere := 0
	for i := 1; i <= n; i++ {
		priced, ok := log.priced[i]
		if !ok || priced != log.sent[i] {
			t.Fatalf("object %d: head priced on link %d (priced=%t), sent on link %d", i, priced, ok, log.sent[i])
		}
		if priced != 0 {
			elsewhere++
		}
	}
	if elsewhere == 0 {
		t.Fatal("no response was bound to a link other than the one that carried its request")
	}
}

// TestSingleLinkPricesHeadAtEnqueue: with one link the compression
// context sees heads in origin-completion order, whatever order the
// pump later sends them in.
func TestSingleLinkPricesHeadAtEnqueue(t *testing.T) {
	r := dialMux(t, newWorld(8, 500_000), constructions[0])
	var priced, started []int
	l := r.sess.links[0]
	price := l.headSize
	l.headSize = func(o *webpage.Object) int {
		priced = append(priced, o.ID)
		return price(o)
	}
	for i := 1; i <= 3; i++ {
		r.request(obj(i, 200_000, webpage.KindImg), 5, nil)
	}
	r.run(500 * time.Millisecond)
	if r.sess.readyLink() != nil {
		t.Fatal("the bulk responses were meant to hold the link")
	}
	// Two origin fetches complete while the link is full, the urgent one
	// last: they are priced as they complete and leave by priority.
	for _, c := range []struct {
		o    *webpage.Object
		prio spdy.Priority
	}{{obj(10, 2_000, webpage.KindImg), 4}, {obj(11, 2_000, webpage.KindHTML), 0}} {
		e := &Exchange{Obj: c.o, Client: hooks{first: func() { started = append(started, c.o.ID) }}, rec: r.w.prox.record(c.o, nil)}
		r.sess.adopt(e, c.prio)
		r.sess.enqueue(e)
	}
	r.run(60 * time.Second)
	if len(priced) != 5 || priced[3] != 10 || priced[4] != 11 {
		t.Fatalf("heads priced in order %v, want completion order", priced)
	}
	if len(started) != 2 || started[0] != 11 || started[1] != 10 {
		t.Fatalf("heads delivered in order %v, want priority order", started)
	}
}

// TestH2WindowParksAndResumes walks one response through the
// flow-control seam: HEADERS go out before the gate, DATA stops dead
// when the stream window is spent, the task parks started, and a
// WINDOW_UPDATE resumes it; two parked tasks requeue in park order.
func TestH2WindowParksAndResumes(t *testing.T) {
	w := newWorld(9, 10_000_000)
	c := constructions[2]
	c.recredit = false
	r := dialMux(t, w, c)
	const win = h2.DefaultInitialWindow
	payload := map[uint32]int{}
	r.sess.OnClientChunk = func(sid uint32, n int) { payload[sid] += n }

	a, b := obj(1, 3*win, webpage.KindImg), obj(2, 2*win, webpage.KindImg)
	var firstA, doneA, doneB bool
	r.request(a, 4, hooks{first: func() { firstA = true }, done: func() { doneA = true }})
	r.run(5 * time.Second)
	if !firstA || doneA || payload[StreamID(a)] != win {
		t.Fatalf("with the window spent: head delivered=%t done=%t payload=%d, want true false %d", firstA, doneA, payload[StreamID(a)], win)
	}
	if len(r.sess.blocked) != 1 || !r.sess.blocked[0].started || r.sess.QueuedResponses != 1 {
		t.Fatalf("task not parked after its HEADERS: blocked=%d queued=%d", len(r.sess.blocked), r.sess.QueuedResponses)
	}
	if err := r.sess.CheckFlowConservation(); err != nil {
		t.Fatal(err)
	}

	// A second response parks behind the first, its own head written.
	r.request(b, 4, hooks{done: func() { doneB = true }})
	r.run(5 * time.Second)
	if len(r.sess.blocked) != 2 || r.sess.blocked[0].Obj != a || r.sess.blocked[1].Obj != b {
		t.Fatalf("park order: %d parked", len(r.sess.blocked))
	}

	// Credit for b only: both requeue, a re-parks, b moves.
	grant := func(sid uint32, n int64, connLevel bool) {
		r.sess.ExpectWindowUpdate(0, sid, n, connLevel)
		r.write[0](0, h2.WindowUpdateFrameSize)
		r.run(5 * time.Second)
	}
	grant(StreamID(b), win, false)
	if payload[StreamID(b)] != 2*win || !doneB || doneA {
		t.Fatalf("after crediting b: payload=%d doneB=%t doneA=%t", payload[StreamID(b)], doneB, doneA)
	}
	if len(r.sess.blocked) != 1 || r.sess.blocked[0].Obj != a {
		t.Fatalf("a should be the one task still parked, have %d", len(r.sess.blocked))
	}
	grant(StreamID(a), 2*win, false)
	if !doneA || payload[StreamID(a)] != 3*win || len(r.sess.blocked) != 0 || r.sess.QueuedResponses != 0 {
		t.Fatalf("after crediting a: done=%t payload=%d parked=%d queued=%d", doneA, payload[StreamID(a)], len(r.sess.blocked), r.sess.QueuedResponses)
	}
	if err := r.sess.CheckFlowConservation(); err != nil {
		t.Fatal(err)
	}
	if got, want := r.sess.fc.ConnWindow(), int64(H2ConnWindow-5*win); got != want {
		t.Fatalf("connection window %d, want %d", got, want)
	}

	// A credit nothing consumed lifts a window above its initial size.
	grant(0, 5*win+1, true)
	if err := r.sess.CheckFlowConservation(); err == nil {
		t.Fatal("un-backed connection credit passed the audit")
	}
}

// TestH2WindowUpdatesQueueOnOneUplink: several WINDOW_UPDATEs outstanding
// on the one uplink at once, a request among them, are credited in the
// order they were written, each to the stream (or the connection) it
// names and by its own amount. Three responses parked on spent windows
// show it, twice: once with every frame in one write, so that all five
// messages land in one delivery, and once with a write each. Each
// response moves exactly what it was granted, and the chunks land in
// the sequence the session wrote when every update was a closure of its
// own (the pump's round robin over the re-queued responses depends on
// which credit was taken first).
func TestH2WindowUpdatesQueueOnOneUplink(t *testing.T) {
	const win = h2.DefaultInitialWindow
	for _, tc := range []struct {
		name     string
		oneWrite bool
		landed   string
	}{
		{"one-write", true, "7×6 5 3 9 7 5 3 7 5 3 5 3×13"},
		{"a-write-each", false, "7×6 5 3 9 7 5 3 7 5 3 5 3×13"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := constructions[2]
			c.recredit = false
			r := dialMux(t, newWorld(9, 10_000_000), c)
			payload := map[uint32]int{}
			var landed []uint32 // the stream of every chunk, from the first credit on
			credited := false
			r.sess.OnClientChunk = func(sid uint32, n int) {
				payload[sid] += n
				if credited {
					landed = append(landed, sid)
				}
			}
			a, b, c3 := obj(1, 3*win, webpage.KindImg), obj(2, 2*win, webpage.KindImg), obj(3, 2*win, webpage.KindImg)
			done := map[int]bool{}
			for _, o := range []*webpage.Object{a, b, c3} {
				r.request(o, 4, hooks{done: func() { done[o.ID] = true }})
			}
			r.run(5 * time.Second)
			if len(r.sess.blocked) != 3 {
				t.Fatalf("%d responses parked, want all three", len(r.sess.blocked))
			}

			credited = true
			unwritten := 0
			write := func(n int) {
				if tc.oneWrite {
					unwritten += n
					return
				}
				r.write[0](0, n)
			}
			grant := func(sid uint32, n int64, connLevel bool) {
				r.sess.ExpectWindowUpdate(0, sid, n, connLevel)
				write(h2.WindowUpdateFrameSize)
			}
			d := obj(4, 1000, webpage.KindImg)
			grant(StreamID(c3), win, false)
			r.sess.ExpectRequest(0, &Exchange{Obj: d, Client: hooks{done: func() { done[d.ID] = true }}}, 100, 4)
			write(100)
			grant(0, 5000, true)
			grant(StreamID(a), 2*win, false)
			grant(StreamID(b), win/2, false)
			if unwritten > 0 {
				r.write[0](0, unwritten)
			}
			r.run(10 * time.Second)

			if got := runs(landed); got != tc.landed {
				t.Errorf("chunks landed on streams %s, want %s", got, tc.landed)
			}
			for _, x := range []struct {
				o    *webpage.Object
				want int
				done bool
			}{{a, 3 * win, true}, {b, win + win/2, false}, {c3, 2 * win, true}, {d, 1000, true}} {
				if got := payload[StreamID(x.o)]; got != x.want || done[x.o.ID] != x.done {
					t.Errorf("object %d: %d payload bytes, done %t; want %d, %t", x.o.ID, got, done[x.o.ID], x.want, x.done)
				}
			}
			if len(r.sess.blocked) != 1 || r.sess.blocked[0].Obj != b {
				t.Fatalf("%d responses parked, want b alone", len(r.sess.blocked))
			}
			if got, want := r.sess.fc.ConnWindow(), int64(H2ConnWindow-(3*win+win+win/2+2*win+1000)+5000); got != want {
				t.Fatalf("connection window %d, want %d", got, want)
			}
			if err := r.sess.CheckFlowConservation(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// runs renders a sequence of stream ids with repeats folded: "7×3 5 3".
func runs(ids []uint32) string {
	var out []string
	for i := 0; i < len(ids); {
		j := i
		for j < len(ids) && ids[j] == ids[i] {
			j++
		}
		s := fmt.Sprint(ids[i])
		if j-i > 1 {
			s += fmt.Sprintf("×%d", j-i)
		}
		out = append(out, s)
		i = j
	}
	return strings.Join(out, " ")
}

// TestQUICResponsesRideOwnStreams: every response is delivered on the
// stream its request came in on, and costs its head plus its body — no
// DATA frame overhead.
func TestQUICResponsesRideOwnStreams(t *testing.T) {
	r := dialMux(t, newWorld(10, 4_000_000), constructions[4])
	const head = 40
	r.sess.links[0].headSize = func(*webpage.Object) int { return head }
	perStream := map[uint32]int{}
	qc := r.sess.links[0].carrier.(*quicCarrier)
	r.quic.OnStreamDeliver(func(sid uint32, n int) {
		perStream[sid] += n
		qc.streams.Deliver(sid, n)
	})
	objs := []*webpage.Object{obj(1, 70_000, webpage.KindImg), obj(2, 9_000, webpage.KindJS), obj(3, 25_000, webpage.KindCSS)}
	done := 0
	for _, o := range objs {
		r.request(o, 3, hooks{done: func() { done++ }})
	}
	r.run(30 * time.Second)
	if done != len(objs) {
		t.Fatalf("completed %d of %d", done, len(objs))
	}
	total := 0
	for _, o := range objs {
		if got := perStream[StreamID(o)]; got != head+o.Size {
			t.Fatalf("stream %d carried %d bytes, want %d", StreamID(o), got, head+o.Size)
		}
		total += head + o.Size
	}
	if len(perStream) != len(objs) || qc.conn.BytesSentApp != int64(total) {
		t.Fatalf("%d streams, %d bytes written, want %d and %d", len(perStream), qc.conn.BytesSentApp, len(objs), total)
	}
}

// sinkCarrier is a link that is always writable and delivers nothing.
type sinkCarrier struct{ sends int }

func (c *sinkCarrier) backlog() int                           { return 0 }
func (c *sinkCarrier) expectRequest(uint32, int, sim.Handler) {}
func (c *sinkCarrier) send(uint32, int, sim.Handler)          { c.sends++ }

// TestMuxPumpAllocations holds the pump to its own allocations, on every
// construction: a response costs the exchange it was requested with and
// nothing else — the head's and every DATA chunk's Expect take a handler
// derived from it, and the priority queue reuses the slot of a class
// holding a lone response, pushed back after every chunk. Transport and
// header pricing are stubbed out, since they allocate on their own
// account; flow control is live, on a stream the controller knows (a
// new one takes a slot in its books, which grow now and then).
func TestMuxPumpAllocations(t *testing.T) {
	const chunks = 4
	o := obj(1, chunks*chunkSize, webpage.KindImg)
	for _, c := range constructions {
		t.Run(c.name, func(t *testing.T) {
			w := newWorld(11, 1_000_000)
			s := c.new(w.prox)
			if s.fc != nil {
				// The run re-credits nothing: give it a window no run spends.
				s.fc = h2.NewFlowController(h2.MaxWindow, h2.MaxWindow)
				s.streamIDs = make([]uint32, 0, 4096)
			}
			sink := &sinkCarrier{}
			for i := 0; i < c.links; i++ {
				s.addLink(sink)
				s.links[i].headSize = func(*webpage.Object) int { return 40 }
			}
			rec := w.prox.record(o, nil)
			respond := func() {
				e := &Exchange{Obj: o, rec: rec}
				s.adopt(e, 4)
				s.enqueue(e)
			}
			respond() // warm the queue and the stream's window
			if got := testing.AllocsPerRun(200, respond); got != 1 {
				t.Fatalf("a %d-chunk response allocates %v objects, want 1 (its exchange; none per Expect, none for the queue)", chunks, got)
			}
			if sink.sends != 202*(1+chunks) || s.QueuedResponses != 0 {
				t.Fatalf("%d sends, %d queued", sink.sends, s.QueuedResponses)
			}
		})
	}
}

// landingCarrier is a sinkCarrier whose inbound messages have all
// arrived by the time they are expected.
type landingCarrier struct{ sinkCarrier }

func (c *landingCarrier) expectRequest(_ uint32, _ int, arrived sim.Handler) { arrived.Call() }

// TestWindowUpdateAllocations: a WINDOW_UPDATE costs nothing to expect
// or to take — its grant waits in the link's queue, and the handler its
// arrival calls is the link itself — and crediting a stream or the
// connection allocates nothing. (It cost a closure each.)
func TestWindowUpdateAllocations(t *testing.T) {
	s := NewH2(newWorld(11, 1_000_000).prox, false)
	s.addLink(&landingCarrier{})
	credit := func() {
		s.ExpectWindowUpdate(0, 1, 1, false)
		s.ExpectWindowUpdate(0, 0, 1, true)
	}
	credit()
	if n := testing.AllocsPerRun(200, credit); n != 0 {
		t.Fatalf("two WINDOW_UPDATEs expected and taken allocate %v objects, want 0", n)
	}
	if got, want := s.fc.StreamWindow(1), int64(h2.DefaultInitialWindow+202); got != want {
		t.Fatalf("stream window %d, want %d", got, want)
	}
	if got, want := s.fc.ConnWindow(), int64(H2ConnWindow+202); got != want {
		t.Fatalf("connection window %d, want %d", got, want)
	}
}

// TestQUICStreamAssemblersComeFromASlab: a stream's assembler is cut from
// a slab of a few, and its queue sits in an array borrowed from the
// network only while a message is expected, so a connection's streams —
// a page's worth, each used once for a head and a body — cost a handful
// of slabs and the map's growth, not two objects and two arrays a
// stream, on a network whose shelf an earlier connection has stocked.
func TestQUICStreamAssemblersComeFromASlab(t *testing.T) {
	const streams = 64
	w := newWorld(12, 1_000_000)
	landed := 0
	done := sim.Func(func() { landed++ })
	conn := func() {
		s := NewQUICStreams(w.net)
		for id := uint32(1); id <= 2*streams; id += 2 {
			s.Expect(id, 40, done)
			s.Expect(id, 1000, done)
		}
		for id := uint32(1); id <= 2*streams; id += 2 {
			s.Deliver(id, 1040)
		}
	}
	if n := testing.AllocsPerRun(5, conn); n > streams/4 {
		t.Errorf("a connection's %d streams allocate %v objects, want at most %d", streams, n, streams/4)
	}
	if want := 6 * 2 * streams; landed != want {
		t.Fatalf("%d messages landed, want %d", landed, want)
	}
}
