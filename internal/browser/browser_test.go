package browser

import (
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"spdier/internal/h2"
	"spdier/internal/netem"
	"spdier/internal/proxy"
	"spdier/internal/rrc"
	"spdier/internal/sim"
	"spdier/internal/tcpsim"
	"spdier/internal/trace"
	"spdier/internal/webpage"
)

// world wires a full browser stack over a chosen radio profile.
type world struct {
	loop  *sim.Loop
	net   *tcpsim.Network
	prox  *proxy.Proxy
	radio *rrc.Machine
}

func newWorld(seed uint64, cellular bool) *world {
	loop := sim.NewLoop()
	rng := sim.NewRNG(seed)
	var radio *rrc.Machine
	var pc netem.PathConfig
	if cellular {
		radio = rrc.NewMachine(loop, rrc.Profile3G())
		pc = netem.Profile3G()
	} else {
		pc = netem.ProfileWiFi()
	}
	path := netem.NewPath(loop, pc, rng.Fork(1), radio)
	network := tcpsim.NewNetwork(loop, path)
	origin := proxy.NewOrigin(proxy.DefaultOriginConfig(), rng.Fork(2))
	return &world{loop: loop, net: network, prox: proxy.New(loop, origin), radio: radio}
}

func (w *world) browser(cfg Config, seed uint64) *Browser {
	return New(w.loop, w.net, w.prox, cfg, sim.NewRNG(seed))
}

func loadOnce(t *testing.T, w *world, b *Browser, page *webpage.Page) *trace.PageRecord {
	t.Helper()
	var rec *trace.PageRecord
	b.LoadPage(page, func(pr *trace.PageRecord) { rec = pr })
	w.loop.Run(w.loop.Now().Add(120 * time.Second))
	if rec == nil {
		t.Fatal("page never completed")
	}
	return rec
}

func TestHTTPLoadCompletesAllObjects(t *testing.T) {
	w := newWorld(1, false)
	b := w.browser(DefaultConfig(ModeHTTP), 3)
	page := webpage.Generate(webpage.Table1()[6], sim.NewRNG(5))
	rec := loadOnce(t, w, b, page)
	if rec.Aborted {
		t.Fatal("aborted")
	}
	if len(rec.Objects) != len(page.Objects) {
		t.Fatalf("loaded %d of %d objects", len(rec.Objects), len(page.Objects))
	}
	for _, or := range rec.Objects {
		if or.Done == 0 || or.FirstByte == 0 || or.Requested == 0 {
			t.Fatalf("object %d timeline incomplete: %+v", or.Obj.ID, or)
		}
		if or.Requested < or.Discovered || or.FirstByte < or.Requested || or.Done < or.FirstByte {
			t.Fatalf("object %d timeline out of order", or.Obj.ID)
		}
	}
}

func TestHTTPRespectsConnectionBudgets(t *testing.T) {
	w := newWorld(2, false)
	cfg := DefaultConfig(ModeHTTP)
	b := w.browser(cfg, 3)
	page := webpage.Generate(webpage.Table1()[14], sim.NewRNG(5)) // 323 objects, 85 domains

	maxTotal := 0
	var watch func()
	watch = func() {
		total := 0
		for _, p := range b.pools {
			perDomain := len(p.conns)
			if perDomain > cfg.MaxConnsPerDomain {
				t.Errorf("domain %s has %d conns", p.domain, perDomain)
			}
			total += perDomain
		}
		if total > maxTotal {
			maxTotal = total
		}
		if total > cfg.MaxTotalConns {
			t.Errorf("total conns %d exceeds %d", total, cfg.MaxTotalConns)
		}
		if w.loop.Pending() > 0 {
			w.loop.After(100*time.Millisecond, watch)
		}
	}
	w.loop.After(100*time.Millisecond, watch)
	loadOnce(t, w, b, page)
	if maxTotal < 10 {
		t.Fatalf("parallelism never materialized: max %d conns", maxTotal)
	}
}

func TestSPDYUsesSingleSessionAcrossPages(t *testing.T) {
	w := newWorld(3, false)
	b := w.browser(DefaultConfig(ModeSPDY), 3)
	for i := 0; i < 3; i++ {
		page := webpage.Generate(webpage.Table1()[i], sim.NewRNG(uint64(i)))
		rec := loadOnce(t, w, b, page)
		for _, or := range rec.Objects {
			if or.ConnID != "spdy00" {
				t.Fatalf("object rode %q", or.ConnID)
			}
		}
	}
	if len(b.mux) != 1 {
		t.Fatalf("%d sessions", len(b.mux))
	}
	if got := len(w.net.Conns()); got != 2 {
		t.Fatalf("%d TCP endpoints, want one pair", got)
	}
}

func TestSPDYStripingRoundRobin(t *testing.T) {
	w := newWorld(4, false)
	cfg := DefaultConfig(ModeSPDY)
	cfg.SPDYSessions = 4
	b := w.browser(cfg, 3)
	page := webpage.Generate(webpage.Table1()[6], sim.NewRNG(5))
	rec := loadOnce(t, w, b, page)
	used := map[string]int{}
	for _, or := range rec.Objects {
		used[or.ConnID]++
	}
	if len(used) != 4 {
		t.Fatalf("striping used %d sessions: %v", len(used), used)
	}
}

func TestSPDYLateBindingCompletes(t *testing.T) {
	w := newWorld(5, true)
	cfg := DefaultConfig(ModeSPDY)
	cfg.SPDYSessions = 4
	cfg.SPDYLateBinding = true
	b := w.browser(cfg, 3)
	page := webpage.Generate(webpage.Table1()[6], sim.NewRNG(5))
	rec := loadOnce(t, w, b, page)
	if rec.Aborted {
		t.Fatal("late-binding load aborted")
	}
	for _, or := range rec.Objects {
		if or.Done == 0 {
			t.Fatalf("object %d incomplete", or.Obj.ID)
		}
	}
}

func TestPipeliningAllowsMultipleOutstanding(t *testing.T) {
	w := newWorld(6, false)
	cfg := DefaultConfig(ModeHTTP)
	cfg.Pipelining = true
	cfg.PipelineDepth = 4
	b := w.browser(cfg, 3)
	page := webpage.TestPage(true) // 50 objects on one domain
	maxOut := 0
	var watch func()
	watch = func() {
		for _, p := range b.pools {
			for _, h := range p.conns {
				if h.outstanding > maxOut {
					maxOut = h.outstanding
				}
				if h.outstanding > 4 {
					t.Errorf("outstanding %d exceeds depth", h.outstanding)
				}
			}
		}
		if w.loop.Pending() > 0 {
			w.loop.After(20*time.Millisecond, watch)
		}
	}
	w.loop.After(20*time.Millisecond, watch)
	rec := loadOnce(t, w, b, page)
	if rec.Aborted {
		t.Fatal("aborted")
	}
	if maxOut < 2 {
		t.Fatalf("pipelining never stacked requests (max %d)", maxOut)
	}
}

func TestPipeliningFasterThanSerialOnHighRTT(t *testing.T) {
	run := func(pipeline bool) time.Duration {
		w := newWorld(7, true)
		cfg := DefaultConfig(ModeHTTP)
		cfg.Pipelining = pipeline
		cfg.PipelineDepth = 6
		b := w.browser(cfg, 3)
		rec := loadOnce(t, w, b, webpage.TestPage(true))
		return rec.PLT()
	}
	serial, piped := run(false), run(true)
	if piped >= serial {
		t.Fatalf("pipelining not faster on 3G single domain: %v vs %v", piped, serial)
	}
}

func TestWatchdogAbortsStalledLoad(t *testing.T) {
	w := newWorld(8, false)
	cfg := DefaultConfig(ModeHTTP)
	cfg.PageTimeout = 300 * time.Millisecond // absurdly tight
	b := w.browser(cfg, 3)
	page := webpage.Generate(webpage.Table1()[16], sim.NewRNG(1)) // 4.7 MB
	rec := loadOnce(t, w, b, page)
	if !rec.Aborted {
		t.Fatal("watchdog did not fire")
	}
	if rec.PLT() > 400*time.Millisecond {
		t.Fatalf("abort PLT %v", rec.PLT())
	}
}

func TestIdleConnectionsClose(t *testing.T) {
	w := newWorld(9, false)
	cfg := DefaultConfig(ModeHTTP)
	cfg.IdleConnTimeout = 2 * time.Second
	cfg.Beacons = false
	b := w.browser(cfg, 3)
	// 323 objects over 85 domains: more connections than the global
	// budget, so sockets are both stolen while the page loads and timed
	// out afterwards.
	loadOnce(t, w, b, webpage.Generate(webpage.Table1()[14], sim.NewRNG(5)))
	if b.connSeq <= cfg.MaxTotalConns || len(b.poolOrder) <= cfg.MaxConnsPerDomain {
		t.Fatalf("load too small to fill the pools: %d connections over %d domains", b.connSeq, len(b.poolOrder))
	}
	w.loop.Run(w.loop.Now().Add(10 * time.Second))
	if got := b.ActiveConns(); got != 0 {
		t.Fatalf("%d connections survive idle timeout", got)
	}
	if b.totalConns != 0 || b.establishedConns != 0 || b.idleConns != 0 {
		t.Fatalf("budget accounting leaked: total %d, established %d, idle %d",
			b.totalConns, b.establishedConns, b.idleConns)
	}
	if n := w.net.HeldPairs(); n != 0 {
		t.Fatalf("%d of %d connections closed but not over: their records are still held", n, b.connSeq)
	}
}

func TestBeaconsGenerateBackgroundTraffic(t *testing.T) {
	w := newWorld(10, false)
	cfg := DefaultConfig(ModeHTTP)
	cfg.Beacons = true
	b := w.browser(cfg, 3)
	var bytesAtLoad int64
	done := false
	b.LoadPage(webpage.Generate(webpage.Table1()[8], sim.NewRNG(5)), func(*trace.PageRecord) {
		done = true
		bytesAtLoad = w.net.Path().BtoA.Stats().Bytes
	})
	w.loop.Run(w.loop.Now().Add(60 * time.Second))
	if !done {
		t.Fatal("page never loaded")
	}
	if w.net.Path().BtoA.Stats().Bytes <= bytesAtLoad {
		t.Fatal("no beacon traffic during think time")
	}
}

func TestSocketStealingUnblocksNewDomains(t *testing.T) {
	// In both, domains beyond the budget wait while every socket is busy
	// (reclaimIdleConn finds nothing idle) and are served on sockets
	// stolen once one is.
	cases := []struct {
		name     string
		totalCap int
		page     *webpage.Page
		nDomains int
	}{
		{"4 sockets, 51 single-object domains", 4, webpage.TestPage(false), 51},
		{"Chrome's 32 sockets, 323 objects over 85 domains", 32, webpage.Generate(webpage.Table1()[14], sim.NewRNG(5)), 85},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := newWorld(11, false)
			cfg := DefaultConfig(ModeHTTP)
			cfg.MaxTotalConns = tc.totalCap
			cfg.Beacons = false
			b := w.browser(cfg, 3)

			// starved: the pool is full, nothing in it is idle, and a
			// domain with room for another connection has requests
			// queued — pumpPool asked reclaimIdleConn and got false.
			starved := false
			var watch func()
			watch = func() {
				if b.totalConns == cfg.MaxTotalConns && b.idleConns == 0 {
					for _, p := range b.poolOrder {
						if p.queued > 0 && len(p.conns) < cfg.MaxConnsPerDomain {
							starved = true
						}
					}
				}
				if w.loop.Pending() > 0 {
					w.loop.After(time.Millisecond, watch)
				}
			}
			w.loop.After(time.Millisecond, watch)

			rec := loadOnce(t, w, b, tc.page)
			if rec.Aborted {
				t.Fatal("load starved under tight global budget")
			}
			domains := map[string]bool{}
			for _, or := range rec.Objects {
				if or.Done == 0 {
					t.Fatalf("object %d starved", or.Obj.ID)
				}
				if or.ConnID != "" {
					domains[strings.SplitN(or.ConnID, ".", 2)[1]] = true
				}
			}
			if len(domains) != tc.nDomains {
				t.Fatalf("served %d domains, want %d", len(domains), tc.nDomains)
			}
			// The load ends long before the idle timeout, so every
			// connection beyond the budget was opened on a stolen socket.
			if rec.PLT() >= cfg.IdleConnTimeout || b.connSeq <= cfg.MaxTotalConns {
				t.Fatalf("no socket was stolen: %d connections in %v", b.connSeq, rec.PLT())
			}
			if !starved {
				t.Fatal("the pool was never full of busy sockets with a domain waiting")
			}
		})
	}
}

// TestInvariantCatchesPoolCountDrift corrupts each maintained count in
// the middle of a load and expects the checker to stop the run.
func TestInvariantCatchesPoolCountDrift(t *testing.T) {
	corrupt := []struct {
		name    string
		breakIt func(*Browser)
	}{
		{"total", func(b *Browser) { b.totalConns-- }},
		{"established", func(b *Browser) { b.establishedConns++ }},
		{"idle", func(b *Browser) { b.idleConns++ }},
	}
	for _, c := range corrupt {
		name, breakIt := c.name, c.breakIt
		t.Run(name, func(t *testing.T) {
			w := newWorld(12, false)
			b := w.browser(DefaultConfig(ModeHTTP), 3)
			b.LoadPage(webpage.TestPage(true), func(*trace.PageRecord) {})
			w.loop.After(300*time.Millisecond, func() { breakIt(b) })
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, "pool-counts") {
					t.Fatalf("drift in the %s count went unnoticed (recovered %q)", name, msg)
				}
			}()
			w.loop.Run(w.loop.Now().Add(60 * time.Second))
		})
	}
}

// TestInvariantCatchesFlowCreditDrift forges, in the middle of an h2
// load, a WINDOW_UPDATE that no delivered byte backs — on the connection,
// then on a stream — and expects the page-end audit to stop the run: the
// credit is in the proxy's books, so they balance, but the window now
// stands above its initial size.
func TestInvariantCatchesFlowCreditDrift(t *testing.T) {
	page := webpage.TestPage(true)
	forge := []struct {
		name      string
		sid       uint32
		n         int64
		connLevel bool
	}{
		{"connection", 0, proxy.H2ConnWindow, true},
		{"stream", proxy.StreamID(page.Main()), h2.DefaultInitialWindow, false},
	}
	for _, f := range forge {
		t.Run(f.name, func(t *testing.T) {
			w := newWorld(12, false)
			b := w.browser(DefaultConfig(ModeH2), 3)
			b.LoadPage(page, func(*trace.PageRecord) {})
			w.loop.After(300*time.Millisecond, func() {
				h := b.mux[0]
				h.sess.ExpectWindowUpdate(h.link, f.sid, f.n, f.connLevel)
				h.write(0, h2.WindowUpdateFrameSize)
			})
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, "flow-credit") {
					t.Fatalf("an un-granted %s credit went unnoticed (recovered %q)", f.name, msg)
				}
			}()
			w.loop.Run(w.loop.Now().Add(60 * time.Second))
		})
	}
}

// TestActiveConnsAcrossModes loads one page per protocol mode and checks
// the statistic the telemetry sampler reads: many sockets for HTTP (the
// count the checker holds to the pool walk), exactly one session for the
// multiplexed modes, and none once QUIC's idle timeout has closed it.
func TestActiveConnsAcrossModes(t *testing.T) {
	page := webpage.Generate(webpage.Table1()[6], sim.NewRNG(5))
	for _, mode := range []Mode{ModeHTTP, ModeSPDY, ModeH2, ModeQUIC} {
		t.Run(string(mode), func(t *testing.T) {
			w := newWorld(13, true)
			cfg := DefaultConfig(mode)
			cfg.Beacons = false
			cfg.IdleConnTimeout = 200 * time.Second // outlives loadOnce's 120 s
			b := w.browser(cfg, 3)
			rec := loadOnce(t, w, b, page)
			if rec.Aborted || len(rec.Objects) != len(page.Objects) {
				t.Fatalf("loaded %d of %d objects, aborted=%t", len(rec.Objects), len(page.Objects), rec.Aborted)
			}
			got := b.ActiveConns()
			switch mode {
			case ModeHTTP:
				if got < 2 || got != b.totalConns || len(w.net.Conns()) != 2*b.connSeq {
					t.Fatalf("%d active of %d open, %d endpoints listed for %d connections", got, b.totalConns, len(w.net.Conns()), b.connSeq)
				}
			case ModeQUIC:
				if got != 1 || len(w.net.QUICConns()) != 2 || len(w.net.Conns()) != 0 {
					t.Fatalf("%d active, %d QUIC and %d TCP endpoints", got, len(w.net.QUICConns()), len(w.net.Conns()))
				}
			default:
				if got != 1 || len(w.net.Conns()) != 2 {
					t.Fatalf("%d active over %d TCP endpoints", got, len(w.net.Conns()))
				}
			}
			for _, h := range b.mux {
				if (h.pendingStream != nil) != (mode == ModeH2) {
					t.Fatalf("window-update books kept = %t in mode %s", h.pendingStream != nil, mode)
				}
			}
			w.loop.Run(w.loop.Now().Add(100 * time.Second))
			want := 1
			if mode == ModeHTTP || mode == ModeQUIC {
				want = 0 // both close idle connections; SPDY and h2 sessions persist
			}
			if got := b.ActiveConns(); got != want {
				t.Fatalf("%d active after the idle timeout, want %d", got, want)
			}
		})
	}
}

// TestResultsDoNotPinTheBrowser: what a finished run's Result keeps —
// the page records, the proxy's log, the network — must not keep the
// browser, and with it every connection's sizers and queues (a SPDY
// session's two deflate contexts alone are 1.4 MB). Records point into
// slabs and at objects, so the test is that nothing they point into
// also holds a way back: the beacons' objects, which only the proxy's
// log outlives, are the case that did. A Conn must not keep its handle
// while the network holds its pair: the HTTP case loads a page of forty
// domains, so that connections close both ways — stolen for another
// domain while the page loads (the global budget is 32), and idled out
// after it — and every pair has retired or is retired by ReleaseRuntime.
func TestResultsDoNotPinTheBrowser(t *testing.T) {
	for _, mode := range []Mode{ModeHTTP, ModeSPDY, ModeH2, ModeQUIC} {
		t.Run(string(mode), func(t *testing.T) {
			page := webpage.TestPage(true)
			if mode == ModeHTTP {
				page = flatPage(120, 40)
			}
			w := newWorld(1, false)
			// The sentinel carries the browser's RNG, which only the
			// browser holds and which holds nothing: the browser itself
			// sits on cycles (its handles point back at it), where a
			// finalizer is not guaranteed to run, and the RNG alone is
			// small enough to share a block with other tiny objects.
			type sentinel struct {
				rng sim.RNG
				_   [64]byte
			}
			rng := &sentinel{rng: *sim.NewRNG(3)}
			b := New(w.loop, w.net, w.prox, DefaultConfig(mode), &rng.rng)
			var collected atomic.Bool
			runtime.SetFinalizer(rng, func(*sentinel) { collected.Store(true) })
			stolen := 0
			w.loop.After(time.Second, func() { stolen = len(w.net.Conns())/2 - b.totalConns })
			rec := loadOnce(t, w, b, page) // runs on for 120 s: the beacons are fetched too
			if len(w.prox.Records) <= len(rec.Objects) {
				t.Fatalf("proxy logged %d requests for %d objects: no beacon was fetched", len(w.prox.Records), len(rec.Objects))
			}
			if opened := len(w.net.Conns()) / 2; mode == ModeHTTP && (opened < 40 || stolen == 0 || stolen == opened || b.totalConns != 0) {
				t.Fatalf("%d connections opened, %d closed for another domain's sake in the first second, %d still open: want 40 or more, closed both ways", opened, stolen, b.totalConns)
			}
			prox, network := w.prox, w.net
			w.loop.Release()
			network.ReleaseRuntime()
			b, w, rng = nil, nil, nil
			for i := 0; i < 100 && !collected.Load(); i++ {
				runtime.GC()
				runtime.Gosched()
			}
			if !collected.Load() {
				t.Fatal("the browser is still reachable from the page record, the proxy's log or the released network")
			}
			runtime.KeepAlive(rec)
			runtime.KeepAlive(prox)
			runtime.KeepAlive(network)
		})
	}
}
