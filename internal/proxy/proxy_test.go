package proxy

import (
	"testing"
	"time"

	"spdier/internal/netem"
	"spdier/internal/sim"
	"spdier/internal/spdy"
	"spdier/internal/tcpsim"
	"spdier/internal/webpage"
)

type world struct {
	loop *sim.Loop
	net  *tcpsim.Network
	prox *Proxy
}

func newWorld(seed uint64, downBPS int64) *world {
	loop := sim.NewLoop()
	pc := netem.PathConfig{
		Up:   netem.LinkConfig{BandwidthBPS: 2_000_000, Delay: 30 * time.Millisecond, QueueBytes: 1 << 20},
		Down: netem.LinkConfig{BandwidthBPS: downBPS, Delay: 30 * time.Millisecond, QueueBytes: 1 << 20},
	}
	path := netem.NewPath(loop, pc, sim.NewRNG(seed), nil)
	network := tcpsim.NewNetwork(loop, path)
	origin := NewOrigin(loop, FastOriginConfig(), sim.NewRNG(seed+1))
	return &world{loop: loop, net: network, prox: New(loop, origin)}
}

func obj(id, size int, kind webpage.Kind) *webpage.Object {
	return &webpage.Object{ID: id, Size: size, Kind: kind, Domain: "d.example", Path: "/x"}
}

func TestOriginFetchDistribution(t *testing.T) {
	loop := sim.NewLoop()
	o := NewOrigin(loop, FastOriginConfig(), sim.NewRNG(1))
	var waits []time.Duration
	for i := 0; i < 500; i++ {
		start := loop.Now()
		var fb sim.Time
		o.Fetch(obj(i, 10_000, webpage.KindImg), func() { fb = loop.Now() }, nil)
		loop.RunUntilIdle()
		waits = append(waits, fb.Sub(start))
	}
	var sum time.Duration
	maxW := time.Duration(0)
	for _, w := range waits {
		sum += w
		if w > maxW {
			maxW = w
		}
	}
	mean := sum / time.Duration(len(waits))
	// Figure 8: ~14 ms average, 46 ms max.
	if mean < 8*time.Millisecond || mean > 22*time.Millisecond {
		t.Fatalf("fast origin mean wait %v", mean)
	}
	if maxW > 46*time.Millisecond {
		t.Fatalf("fast origin max wait %v", maxW)
	}
}

func TestOriginSlowTailMixture(t *testing.T) {
	loop := sim.NewLoop()
	o := NewOrigin(loop, DefaultOriginConfig(), sim.NewRNG(2))
	slow := 0
	const n = 1000
	for i := 0; i < n; i++ {
		start := loop.Now()
		var fb sim.Time
		o.Fetch(obj(i, 1000, webpage.KindText), func() { fb = loop.Now() }, nil)
		loop.RunUntilIdle()
		if fb.Sub(start) > 100*time.Millisecond {
			slow++
		}
	}
	if slow < n/10 || slow > n/3 {
		t.Fatalf("slow tail %d/%d, want ≈20%%", slow, n)
	}
}

// dialHTTP builds an established HTTP proxy connection pair.
func dialHTTP(t *testing.T, w *world, id string) (*tcpsim.Conn, *HTTPConn, *tcpsim.StreamAssembler) {
	t.Helper()
	client, server := w.net.NewConnPair(tcpsim.DefaultConfig(), tcpsim.DefaultConfig(), id, "dev")
	asm := &tcpsim.StreamAssembler{}
	client.OnDeliver(asm.Deliver)
	hc := NewHTTPConn(w.prox, server, asm)
	client.Connect()
	w.loop.Run(w.loop.Now().Add(time.Second))
	if !client.Established() {
		t.Fatal("handshake failed")
	}
	return client, hc, asm
}

func TestHTTPConnServesRequest(t *testing.T) {
	w := newWorld(1, 10_000_000)
	client, hc, _ := dialHTTP(t, w, "h1")
	o := obj(1, 50_000, webpage.KindImg)
	var first, done sim.Time
	hc.ExpectRequest(o, HTTPReqSize(o), ResponseHooks{
		OnFirstByte: func() { first = w.loop.Now() },
		OnDone:      func() { done = w.loop.Now() },
	})
	client.Write(HTTPReqSize(o))
	w.loop.Run(w.loop.Now().Add(30 * time.Second))
	if first == 0 || done <= first {
		t.Fatalf("timeline: first=%v done=%v", first, done)
	}
	if len(w.prox.Records) != 1 || w.prox.Records[0].SendDone == 0 {
		t.Fatalf("proxy record missing: %+v", w.prox.Records)
	}
	if hc.ready != nil {
		t.Fatal("a response that was next in line was parked in the pipelining map")
	}
}

func TestHTTPPipelinedResponsesKeepRequestOrder(t *testing.T) {
	w := newWorld(2, 10_000_000)
	client, hc, _ := dialHTTP(t, w, "h2")
	// Request a large object then a tiny one; the tiny one's origin
	// fetch finishes first but HTTP must answer in request order.
	big, small := obj(1, 400_000, webpage.KindImg), obj(2, 500, webpage.KindText)
	var order []int
	hc.ExpectRequest(big, HTTPReqSize(big), ResponseHooks{OnDone: func() { order = append(order, 1) }})
	hc.ExpectRequest(small, HTTPReqSize(small), ResponseHooks{OnDone: func() { order = append(order, 2) }})
	client.Write(HTTPReqSize(big))
	client.Write(HTTPReqSize(small))
	w.loop.Run(w.loop.Now().Add(60 * time.Second))
	if len(order) != 2 || order[0] != 1 || order[1] != 2 {
		t.Fatalf("HOL order violated: %v", order)
	}
	if hc.ready == nil || len(hc.ready) != 0 {
		t.Fatalf("the early response should have been parked, then flushed: ready=%v", hc.ready)
	}
}

// dialSPDY builds an established SPDY session pair.
func dialSPDY(t *testing.T, w *world, id string) (*tcpsim.Conn, *SPDYSession) {
	t.Helper()
	client, server := w.net.NewConnPair(tcpsim.DefaultConfig(), tcpsim.DefaultConfig(), id, "dev")
	asm := &tcpsim.StreamAssembler{}
	client.OnDeliver(asm.Deliver)
	sess := NewSPDYSession(w.prox, server, asm)
	client.Connect()
	w.loop.Run(w.loop.Now().Add(time.Second))
	return client, sess
}

func TestSPDYSessionPriorityOrdering(t *testing.T) {
	// On a slow downlink, a high-priority response requested after three
	// bulk ones must still finish first.
	w := newWorld(3, 1_000_000)
	client, sess := dialSPDY(t, w, "s1")
	var order []int
	request := func(o *webpage.Object, prio spdy.Priority) {
		id := o.ID
		sess.ExpectRequest(o, 100, prio, ResponseHooks{OnDone: func() { order = append(order, id) }})
		client.Write(100)
	}
	for i := 1; i <= 3; i++ {
		request(obj(i, 300_000, webpage.KindImg), 5)
	}
	w.loop.Run(w.loop.Now().Add(500 * time.Millisecond))
	request(obj(99, 4_000, webpage.KindHTML), 0)
	w.loop.Run(w.loop.Now().Add(60 * time.Second))
	if len(order) != 4 {
		t.Fatalf("completions %v", order)
	}
	if order[0] != 99 {
		t.Fatalf("priority 0 did not preempt bulk: %v", order)
	}
}

func TestSPDYSessionInterleavesEqualPriority(t *testing.T) {
	// Two equal-priority objects requested together should finish close
	// to each other (round-robin), not strictly one after the other.
	w := newWorld(4, 2_000_000)
	client, sess := dialSPDY(t, w, "s2")
	var done []sim.Time
	for i := 1; i <= 2; i++ {
		o := obj(i, 200_000, webpage.KindImg)
		sess.ExpectRequest(o, 100, 4, ResponseHooks{OnDone: func() { done = append(done, w.loop.Now()) }})
		client.Write(100)
	}
	w.loop.Run(w.loop.Now().Add(60 * time.Second))
	if len(done) != 2 {
		t.Fatalf("completions %d", len(done))
	}
	gap := done[1].Sub(done[0])
	// Serialized service would separate them by a full object time
	// (200KB at 2Mbit/s ≈ 800ms); interleave keeps the gap small.
	if gap > 300*time.Millisecond {
		t.Fatalf("no interleave: gap %v", gap)
	}
}

func TestSPDYQueueGauge(t *testing.T) {
	w := newWorld(5, 500_000) // very slow downlink
	client, sess := dialSPDY(t, w, "s3")
	for i := 1; i <= 5; i++ {
		o := obj(i, 100_000, webpage.KindImg)
		sess.ExpectRequest(o, 100, 4, ResponseHooks{})
		client.Write(100)
	}
	w.loop.Run(w.loop.Now().Add(2 * time.Second))
	if sess.QueuedResponses < 2 {
		t.Fatalf("no proxy-side queueing on a slow link: %d", sess.QueuedResponses)
	}
	w.loop.Run(w.loop.Now().Add(60 * time.Second))
	if sess.QueuedResponses != 0 {
		t.Fatalf("queue did not drain: %d", sess.QueuedResponses)
	}
}

func TestSPDYGroupLateBindingSpreadsChunks(t *testing.T) {
	w := newWorld(6, 4_000_000)
	group := NewSPDYGroup(w.prox)
	var clients []*tcpsim.Conn
	var asms []*tcpsim.StreamAssembler
	for i := 0; i < 3; i++ {
		client, server := w.net.NewConnPair(tcpsim.DefaultConfig(), tcpsim.DefaultConfig(), "g"+string(rune('0'+i)), "dev")
		asm := &tcpsim.StreamAssembler{}
		client.OnDeliver(asm.Deliver)
		group.AddSession(server, asm)
		client.Connect()
		clients = append(clients, client)
		asms = append(asms, asm)
	}
	w.loop.Run(w.loop.Now().Add(time.Second))

	completed := 0
	for i := 1; i <= 6; i++ {
		o := obj(i, 150_000, webpage.KindImg)
		group.ExpectRequest(i%3, o, 100, 4, ResponseHooks{OnDone: func() { completed++ }})
		clients[i%3].Write(100)
	}
	w.loop.Run(w.loop.Now().Add(60 * time.Second))
	if completed != 6 {
		t.Fatalf("completed %d of 6", completed)
	}
	// Late binding must have used more than one downstream connection.
	used := 0
	for _, c := range clients {
		if c.BytesRcvdApp > 0 {
			used++
		}
	}
	if used < 2 {
		t.Fatalf("responses pinned to %d connection(s)", used)
	}
}

func TestReqAndRespSizeHelpers(t *testing.T) {
	o := obj(1, 123456, webpage.KindImg)
	if n := HTTPReqSize(o); n < 300 || n > 1380 {
		t.Fatalf("req size %d", n)
	}
	if n := HTTPRespHeadSize(o); n < 150 || n > 600 {
		t.Fatalf("resp head %d", n)
	}
	if contentType(webpage.KindHTML) != "text/html; charset=utf-8" || contentType(webpage.KindImg) != "image/jpeg" {
		t.Fatal("content types")
	}
}

// TestHTTPSizersDoNotAllocate holds the two per-object sizers to what
// they are: arithmetic over string lengths. They run twice per object in
// every HTTP session, and used to make over half of its garbage.
func TestHTTPSizersDoNotAllocate(t *testing.T) {
	o := &webpage.Object{ID: 7, Kind: webpage.KindJS, Size: 48213, Domain: "cdn3.site-09.example", Path: "/js/app.min.js"}
	sink := 0
	if n := testing.AllocsPerRun(100, func() { sink += HTTPReqSize(o) + HTTPRespHeadSize(o) }); n != 0 {
		t.Fatalf("sizing one request and response head allocates %v objects", n)
	}
	if sink == 0 {
		t.Fatal("sizers returned nothing")
	}
}
