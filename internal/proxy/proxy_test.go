package proxy

import (
	"runtime"
	"testing"
	"time"
	"unsafe"

	"spdier/internal/netem"
	"spdier/internal/sim"
	"spdier/internal/tcpsim"
	"spdier/internal/trace"
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
	origin := NewOrigin(FastOriginConfig(), sim.NewRNG(seed+1))
	return &world{loop: loop, net: network, prox: New(loop, origin)}
}

// hooks is an exchange's Client made of closures; either may be nil.
type hooks struct{ first, done func() }

func (h hooks) FirstByte() {
	if h.first != nil {
		h.first()
	}
}

func (h hooks) Done() {
	if h.done != nil {
		h.done()
	}
}

func obj(id, size int, kind webpage.Kind) *webpage.Object {
	return &webpage.Object{ID: id, Size: size, Kind: kind, Domain: "d.example", Path: "/x"}
}

func TestOriginFetchDistribution(t *testing.T) {
	o := NewOrigin(FastOriginConfig(), sim.NewRNG(1))
	var waits []time.Duration
	for i := 0; i < 500; i++ {
		wait, _ := o.Timing(obj(i, 10_000, webpage.KindImg))
		waits = append(waits, wait)
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
	o := NewOrigin(DefaultOriginConfig(), sim.NewRNG(2))
	slow := 0
	const n = 1000
	for i := 0; i < n; i++ {
		if wait, _ := o.Timing(obj(i, 1000, webpage.KindText)); wait > 100*time.Millisecond {
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
	asm, hc := &tcpsim.StreamAssembler{}, &HTTPConn{}
	asm.Attach(client)
	hc.Init(w.prox, server, asm)
	client.Connect()
	w.loop.Run(w.loop.Now().Add(time.Second))
	if !client.Established() {
		t.Fatal("handshake failed")
	}
	return client, hc, asm
}

// TestOriginTimingBounds: a wait is cut at the configured maximum on
// either branch of the mixture and never falls under a millisecond; the
// download is the floor plus the body at the origin's rate.
func TestOriginTimingBounds(t *testing.T) {
	cfg := DefaultOriginConfig()
	cfg.WaitMax, cfg.SlowMax = 5*time.Millisecond, 50*time.Millisecond
	o := NewOrigin(cfg, sim.NewRNG(3))
	big := obj(1, 50_000_000, webpage.KindImg)
	var atFast, atSlow bool
	for i := 0; i < 500; i++ {
		wait, download := o.Timing(big)
		if wait > cfg.SlowMax || wait < time.Millisecond {
			t.Fatalf("wait %v outside [1ms, %v]", wait, cfg.SlowMax)
		}
		atFast = atFast || wait == cfg.WaitMax
		atSlow = atSlow || wait == cfg.SlowMax
		if want := cfg.DownloadFloor + time.Second; download != want {
			t.Fatalf("download %v, want %v", download, want)
		}
	}
	if !atFast || !atSlow {
		t.Fatalf("no wait reached a maximum: fast %t, slow %t", atFast, atSlow)
	}
	cfg.WaitMedian, cfg.SlowFraction, cfg.BandwidthBPS = time.Microsecond, 0, 0
	if wait, download := NewOrigin(cfg, sim.NewRNG(4)).Timing(big); wait != time.Millisecond || download != cfg.DownloadFloor {
		t.Fatalf("wait %v download %v, want the 1ms floor and the download floor", wait, download)
	}
}

// TestRecordsComeFromThePageSlab: a run's log is sized once — its
// entries come from one reserved chunk and Records holds them without
// growing — and an announced page's entries are handed to its own
// requests, whatever arrives in between; a request nobody announced gets
// one of its own, not one of a page's.
func TestRecordsComeFromThePageSlab(t *testing.T) {
	w := newWorld(1, 10_000_000)
	o := obj(1, 1000, webpage.KindImg)
	const page, run = 8, 40
	if n := testing.AllocsPerRun(1, func() {
		w.prox.ExpectRun(run)
		first, second := w.prox.ExpectPage(page), w.prox.ExpectPage(page)
		for i := range page {
			w.prox.record(o, &second[i])
			w.prox.record(o, nil)
			w.prox.record(o, &first[i])
		}
	}); n != 2 {
		t.Fatalf("a run of %d logged requests allocates %v objects, want 2: the reserved chunk and Records", 3*page, n)
	}
	if len(w.prox.Records) != 3*page || cap(w.prox.Records) != run {
		t.Fatalf("%d records in a log of capacity %d, want %d in %d", len(w.prox.Records), cap(w.prox.Records), 3*page, run)
	}
	base := unsafe.Pointer(w.prox.Records[2])
	seen := map[*trace.ProxyRecord]bool{}
	for i, r := range w.prox.Records {
		if seen[r] || r.Obj != o {
			t.Fatalf("record %p reused or empty: %+v", r, r)
		}
		seen[r] = true
		// Entries 0–7 are the first page's, 8–15 the second's, 16–23
		// the unannounced requests', in arrival order.
		want := [3]int{page + i/3, 2*page + i/3, i / 3}[i%3]
		if off := uintptr(unsafe.Pointer(r)) - uintptr(base); off != uintptr(want)*unsafe.Sizeof(*r) {
			t.Fatalf("request %d logged at entry %d of the run's chunk, want %d", i, off/unsafe.Sizeof(*r), want)
		}
	}
}

// TestLooseRecordChunk: without a run's reservation, the log entries of
// requests nobody announced are carved from chunks that double up to
// recordChunk records, the most that fit the allocator's 8,192-byte
// class with the 8-byte header a pointer-bearing chunk carries; one more
// must not fit.
func TestLooseRecordChunk(t *testing.T) {
	const class, header = 8192, 8
	size := unsafe.Sizeof(trace.ProxyRecord{})
	if full, over := recordChunk*size+header, (recordChunk+1)*size+header; full > class || over <= class {
		t.Errorf("a record is %d bytes: a chunk of %d takes %d, of %d %d; want the first in the %d-byte class and the second past it",
			size, recordChunk, full, recordChunk+1, over, class)
	}
	w := newWorld(1, 10_000_000)
	o := obj(1, 1000, webpage.KindImg)
	const n = 2 * recordChunk
	w.prox.Records = make([]*trace.ProxyRecord, 0, n)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range n {
		w.prox.record(o, nil)
	}
	runtime.ReadMemStats(&after)
	// Chunks of 1, 2, 4 … 128 hold 255 records, two of 170 the rest.
	if got := after.Mallocs - before.Mallocs; got > 10 {
		t.Fatalf("%d unannounced requests allocate %d objects, want at most 10", n, got)
	}
}

func TestHTTPConnServesRequest(t *testing.T) {
	w := newWorld(1, 10_000_000)
	client, hc, _ := dialHTTP(t, w, "h1")
	o := obj(1, 50_000, webpage.KindImg)
	var first, done sim.Time
	hc.ExpectRequest(&Exchange{Obj: o, Client: hooks{
		first: func() { first = w.loop.Now() },
		done:  func() { done = w.loop.Now() },
	}}, HTTPReqSize(o))
	client.Write(HTTPReqSize(o))
	w.loop.Run(w.loop.Now().Add(30 * time.Second))
	if first == 0 || done <= first {
		t.Fatalf("timeline: first=%v done=%v", first, done)
	}
	if len(w.prox.Records) != 1 || w.prox.Records[0].SendDone == 0 {
		t.Fatalf("proxy record missing: %+v", w.prox.Records)
	}
	if hc.parked != nil {
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
	hc.ExpectRequest(&Exchange{Obj: big, Client: hooks{done: func() { order = append(order, 1) }}}, HTTPReqSize(big))
	hc.ExpectRequest(&Exchange{Obj: small, Client: hooks{done: func() { order = append(order, 2) }}}, HTTPReqSize(small))
	client.Write(HTTPReqSize(big))
	client.Write(HTTPReqSize(small))
	w.loop.Run(w.loop.Now().Add(60 * time.Second))
	if len(order) != 2 || order[0] != 1 || order[1] != 2 {
		t.Fatalf("HOL order violated: %v", order)
	}
	if hc.parked == nil || len(hc.parked) != 0 {
		t.Fatalf("the early response should have been parked, then flushed: parked=%v", hc.parked)
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
