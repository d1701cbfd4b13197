package browser

import (
	"fmt"
	"runtime"
	"testing"

	"spdier/internal/sim"
	"spdier/internal/trace"
	"spdier/internal/webpage"
)

// The proxy+browser row of the cost ledger for the HTTP arm: what one
// request costs from discovery to its last response byte — pool lookup,
// socket budget, both head sizers, the proxy's FIFO books — with bodies
// of a few hundred bytes so that moving payload is not what is priced.
// Four domains keep the load inside the per-domain budget (24 sockets,
// no stealing); forty put three objects on each domain, so the global
// budget of 32 fills and most requests wait for a stolen socket.

// flatPage is a main document plus objects spread round-robin over
// `domains` hosts, all revealed by the main document at once.
func flatPage(objects, domains int) *webpage.Page {
	page := &webpage.Page{Name: "flat", Category: "synthetic"}
	for i := 0; i < objects; i++ {
		o := &webpage.Object{
			ID:     i,
			Kind:   webpage.KindImg,
			Size:   200 + i,
			Domain: fmt.Sprintf("d%02d.bench.example", i%domains),
			Path:   fmt.Sprintf("/o/%d", i),
			Parent: 0,
			Wave:   1,
		}
		if i == 0 {
			o.Kind, o.Parent, o.Wave = webpage.KindHTML, -1, 0
		}
		page.Objects = append(page.Objects, o)
	}
	return page
}

// httpCycle returns a function that loads page once in a new world, on
// a browser that opens every connection the page needs.
func httpCycle(tb testing.TB, page *webpage.Page) func() {
	cfg := DefaultConfig(ModeHTTP)
	cfg.Beacons = false
	return func() {
		w := newWorld(1, false)
		br := w.browser(cfg, 3)
		var rec *trace.PageRecord
		br.LoadPage(page, func(pr *trace.PageRecord) { rec = pr })
		w.loop.Run(sim.Time(cfg.PageTimeout))
		if rec == nil || rec.Aborted || len(rec.Objects) != len(page.Objects) {
			tb.Fatalf("load did not complete: %+v", rec)
		}
	}
}

// httpDomains are the two spreads of BenchmarkHTTPRequestCycle's page.
var httpDomains = []int{4, 40}

func BenchmarkHTTPRequestCycle(b *testing.B) {
	const objects = 120
	invOn = false
	defer EnableInvariants()
	for _, domains := range httpDomains {
		page := flatPage(objects, domains)
		b.Run(fmt.Sprintf("domains=%d", domains), func(b *testing.B) {
			load := httpCycle(b, page)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				load()
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			requests := float64(b.N * objects)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/requests, "ns/request")
			b.ReportMetric(float64(after.Mallocs-before.Mallocs)/requests, "allocs/request")
		})
	}
}

// TestHTTPRequestCycleAllocations is BenchmarkHTTPRequestCycle's
// allocations per request as a budget: the world, the browser and the
// page's slabs shared out over 120 requests, and per request its
// exchange's steps, its two head sizes and the proxy's books. Neither a
// connection nor a domain costs an object of its own — pairs, handles,
// pools and their connection slots come from per-run slabs, and a
// waiting request is queued through its own fetch — so spreading the
// page over forty domains, which opens more connections and waits on
// stolen sockets, costs less than one object a request more than over
// four.
func TestHTTPRequestCycleAllocations(t *testing.T) {
	const objects = 120
	budget := map[int]float64{4: 2.5, 40: 3.25}
	for _, domains := range httpDomains {
		t.Run(fmt.Sprintf("domains=%d", domains), func(t *testing.T) {
			invOn = false
			defer EnableInvariants()
			perRequest := testing.AllocsPerRun(5, httpCycle(t, flatPage(objects, domains))) / objects
			t.Logf("%d domains: %.2f objects a request", domains, perRequest)
			if perRequest > budget[domains] {
				t.Fatalf("%d domains: a request allocates %.2f objects end to end, budget %.2f", domains, perRequest, budget[domains])
			}
		})
	}
}

// muxModes are the three arms on the multiplexed path.
var muxModes = []Mode{ModeSPDY, ModeH2, ModeQUIC}

// muxCycle returns a function that loads page once on a browser whose
// connection is already open and warm, stopping the loop at onLoad so
// that no idle timer closes the connection between loads.
func muxCycle(tb testing.TB, mode Mode, page *webpage.Page) func() {
	cfg := DefaultConfig(mode)
	cfg.Beacons = false
	w := newWorld(1, false)
	br := w.browser(cfg, 3)
	load := func() {
		var rec *trace.PageRecord
		br.LoadPage(page, func(pr *trace.PageRecord) { rec = pr; w.loop.Stop() })
		w.loop.RunUntilIdle()
		if rec == nil || rec.Aborted || len(rec.Objects) != len(page.Objects) {
			tb.Fatalf("load did not complete: %+v", rec)
		}
	}
	load()
	return load
}

// TestMuxRequestCycleAllocations is the per-request budget of the
// multiplexed arms, end to end: discovery, request pricing, the proxy's
// log entry and origin timers, the pump, every Expect, delivery and the
// browser's books. What a page costs whatever it holds (its record, its
// slabs, its watchdog) is measured on a page of one object and taken
// off; what is left, per object, is the budget: the fetch, both records
// and the exchange come out of the page's slabs and every step is a
// handler derived from the exchange, so a request costs nothing of its
// own on SPDY and h2 — an HPACK content-length is installed as the
// number, a WINDOW_UPDATE is a grant in its link's queue, a stream's
// window a slot in the flow controller's. The half object on top is
// queues and wheel buckets growing under a burst of 160 requests, which
// a page of one never makes them do; QUIC adds a stream assembler per
// stream on a connection its idle close renews.
func TestMuxRequestCycleAllocations(t *testing.T) {
	const objects = 1 + 160
	budget := map[Mode]float64{ModeSPDY: 0.5, ModeH2: 0.5, ModeQUIC: 1.5}
	for _, mode := range muxModes {
		t.Run(string(mode), func(t *testing.T) {
			invOn = false
			defer EnableInvariants()
			base := testing.AllocsPerRun(10, muxCycle(t, mode, flatPage(1, 1)))
			full := testing.AllocsPerRun(10, muxCycle(t, mode, flatPage(objects, 1)))
			perRequest := (full - base) / (objects - 1)
			t.Logf("%s: page of one object %v allocs, of %d objects %v: %.2f per request", mode, base, objects, full, perRequest)
			if perRequest > budget[mode] {
				t.Fatalf("%s: a request allocates %.2f objects end to end, budget %.1f", mode, perRequest, budget[mode])
			}
		})
	}
}

// BenchmarkMuxRequestCycle is BenchmarkHTTPRequestCycle for the three
// multiplexed arms: one page of 120 small objects per iteration on an
// open connection, reported per request.
func BenchmarkMuxRequestCycle(b *testing.B) {
	const objects = 120
	invOn = false
	defer EnableInvariants()
	page := flatPage(objects, 4)
	for _, mode := range muxModes {
		b.Run(string(mode), func(b *testing.B) {
			load := muxCycle(b, mode, page)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				load()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*objects), "ns/request")
		})
	}
}
