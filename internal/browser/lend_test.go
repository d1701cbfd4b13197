package browser

import (
	"cmp"
	"slices"
	"testing"
	"time"
	"unsafe"

	"spdier/internal/netem"
	"spdier/internal/proxy"
	"spdier/internal/rrc"
	"spdier/internal/sim"
	"spdier/internal/tcpsim"
	"spdier/internal/trace"
	"spdier/internal/webpage"
)

// lossyWorld is newWorld's 3G stack with 2% random loss each way: pages
// take long enough that a short watchdog cuts them off with responses
// still on their way.
func lossyWorld(seed uint64) *world {
	loop := sim.NewLoop()
	rng := sim.NewRNG(seed)
	radio := rrc.NewMachine(loop, rrc.Profile3G())
	pc := netem.Profile3G()
	pc.Up.LossRate, pc.Down.LossRate = 0.02, 0.02
	path := netem.NewPath(loop, pc, rng.Fork(1), radio)
	origin := proxy.NewOrigin(proxy.DefaultOriginConfig(), rng.Fork(2))
	return &world{loop: loop, net: tcpsim.NewNetwork(loop, path), prox: proxy.New(loop, origin), radio: radio}
}

// TestAbortedPageKeepsItsFetches holds the drain rule on every arm: a
// page's working record and fetch slab go to the next page only once no
// response of the page is on its way and no processing delay is pending.
// Pages start four seconds apart under a three-second watchdog on a
// lossy 3G path, so most are cut off with fetches in flight when the
// next one starts, and a few drain in time. A page that had not drained
// must keep its record and its slab; and once the loop has run dry,
// every object a page discovered has landed in that page's own record,
// in timeline order — a response that landed in a slab lent to a later
// page would leave its own record unfinished.
func TestAbortedPageKeepsItsFetches(t *testing.T) {
	const pages, spacing = 14, 4 * time.Second
	for _, mode := range []Mode{ModeHTTP, ModeSPDY, ModeH2, ModeQUIC} {
		t.Run(string(mode), func(t *testing.T) {
			w := lossyWorld(4)
			cfg := DefaultConfig(mode)
			cfg.PageTimeout = 3 * time.Second
			b := w.browser(cfg, 3)
			specs := webpage.Table1()
			var g webpage.Generator
			var recs []*trace.PageRecord
			lent, kept, aborted := 0, 0, 0
			for i := 0; i < pages; i++ {
				page := g.Generate(specs[(i*7)%len(specs)], sim.NewRNG(uint64(i)))
				w.loop.At(sim.Time(i)*sim.Time(spacing), func() {
					prev := b.cur
					var drained bool
					var slab *fetch
					if prev != nil {
						drained, slab = prev.drained(), unsafe.SliceData(prev.fetches)
					}
					b.LoadPage(page, func(pr *trace.PageRecord) {
						recs = append(recs, pr)
						if pr.Aborted {
							aborted++
						}
					})
					switch reused := prev != nil && (b.cur == prev || unsafe.SliceData(b.cur.fetches) == slab); {
					case reused && !drained:
						t.Errorf("page %d took the record or slab of a page with %d responses on their way and %d reveals pending", i, prev.outstanding, prev.pendingReveals)
					case reused:
						lent++
					case prev != nil && !drained:
						kept++
					}
				})
			}
			w.loop.Run(sim.Time(pages)*sim.Time(spacing) + sim.Time(10*time.Minute))
			t.Logf("%d pages, %d aborted; %d started on a drained page's record, %d beside a page still loading", len(recs), aborted, lent, kept)
			if len(recs) != pages || lent == 0 || kept == 0 {
				t.Fatalf("%d of %d pages loaded, %d lent a record, %d kept one: the run must exercise both sides of the drain rule", len(recs), pages, lent, kept)
			}
			for _, rec := range recs {
				for _, or := range rec.Objects {
					if or.Obj != rec.Page.Objects[or.Obj.ID] {
						t.Fatalf("%s: a record of object %d that is not the page's", rec.Page.Name, or.Obj.ID)
					}
					if or.Done == 0 || or.Requested < or.Discovered || or.FirstByte < or.Requested || or.Done < or.FirstByte {
						t.Fatalf("%s object %d: timeline %v / %v / %v / %v after the loop ran dry", rec.Page.Name, or.Obj.ID, or.Discovered, or.Requested, or.FirstByte, or.Done)
					}
				}
			}
		})
	}
}

// TestPageRecordsAreDisjoint: what Load carves for a page from the run's
// stores — its object records, its Objects slice and the proxy's log
// entries for its requests — lies in a range that no other page's
// overlaps, and an append past a page's Objects capacity lands in an
// array of its own. Pages are cut off as in
// TestAbortedPageKeepsItsFetches, so responses of one page land while
// the next loads; the run is made three ways on every arm: with every
// page passed to Expect, with the largest left out (it and the pages
// after it are carved past the reservation), and with no Expect at all.
func TestPageRecordsAreDisjoint(t *testing.T) {
	const pages, spacing = 14, 4 * time.Second
	for _, mode := range []Mode{ModeHTTP, ModeSPDY, ModeH2, ModeQUIC} {
		for _, expect := range []string{"all", "all-but-largest", "none"} {
			t.Run(string(mode)+"/"+expect, func(t *testing.T) {
				w := lossyWorld(4)
				cfg := DefaultConfig(mode)
				cfg.PageTimeout = 3 * time.Second
				b := w.browser(cfg, 3)
				specs := webpage.Table1()
				var g webpage.Generator
				set := make([]*webpage.Page, pages)
				pageOf := map[*webpage.Object]int{}
				largest := 0
				for i := range set {
					set[i] = g.Generate(specs[(i*7)%len(specs)], sim.NewRNG(uint64(i)))
					for _, o := range set[i].Objects {
						pageOf[o] = i
					}
					if len(set[i].Objects) > len(set[largest].Objects) {
						largest = i
					}
				}
				switch expect {
				case "all":
					b.Expect(set)
				case "all-but-largest":
					b.Expect(slices.Delete(slices.Clone(set), largest, largest+1))
				}
				recs := make([]*trace.PageRecord, pages)
				for i, page := range set {
					w.loop.At(sim.Time(i)*sim.Time(spacing), func() {
						b.LoadPage(page, func(pr *trace.PageRecord) { recs[i] = pr })
					})
				}
				w.loop.Run(sim.Time(pages)*sim.Time(spacing) + sim.Time(10*time.Minute))

				var objRecs, objPtrs, logs []span
				lateResponses, lateRequests := 0, 0 // landed or arrived after the next page began
				for i, rec := range recs {
					if rec == nil || rec.Page != set[i] {
						t.Fatalf("page %d: record %v", i, rec)
					}
					for _, or := range rec.Objects {
						if i+1 < pages && or.Done >= recs[i+1].Start {
							lateResponses++
						}
					}
					objRecs = append(objRecs, spanOf(i, rec.Objects, func(or *trace.ObjectRecord) *trace.ObjectRecord { return or }))
					ptrs := unsafe.SliceData(rec.Objects)
					objPtrs = append(objPtrs, span{i, uintptr(unsafe.Pointer(ptrs)), uintptr(unsafe.Pointer(ptrs)) + uintptr(cap(rec.Objects))*unsafe.Sizeof(ptrs)})
				}
				byPage := make([][]*trace.ProxyRecord, pages)
				for _, pr := range w.prox.Records {
					if i, ok := pageOf[pr.Obj]; ok {
						byPage[i] = append(byPage[i], pr)
						if i+1 < pages && pr.ReqArrived >= recs[i+1].Start {
							lateRequests++
						}
					}
				}
				for i, prs := range byPage {
					if len(prs) != len(recs[i].Objects) {
						t.Fatalf("page %d: the proxy logged %d of its requests, the browser discovered %d objects", i, len(prs), len(recs[i].Objects))
					}
					logs = append(logs, spanOf(i, prs, func(pr *trace.ProxyRecord) *trace.ProxyRecord { return pr }))
				}
				// Only HTTP queues requests, which can reach the proxy after
				// their page was cut off.
				t.Logf("%d responses landed and %d requests arrived after the next page began", lateResponses, lateRequests)
				if lateResponses == 0 || mode == ModeHTTP && lateRequests == 0 {
					t.Fatal("the run must interleave pages: land responses, and on HTTP log requests, of one page while the next loads")
				}
				disjoint(t, "object records", objRecs)
				disjoint(t, "Objects slices", objPtrs)
				disjoint(t, "proxy log entries", logs)
				if expect == "all" { // one chunk, carved page after page
					for i := 1; i < pages; i++ {
						if objPtrs[i].lo != objPtrs[i-1].hi {
							t.Fatalf("page %d's Objects slice is not carved right after page %d's from the run's chunk", i, i-1)
						}
					}
				}

				sentinel := new(trace.ObjectRecord)
				for _, rec := range recs {
					_ = append(rec.Objects[:cap(rec.Objects)], sentinel)
				}
				for i, rec := range recs {
					if slices.Contains(rec.Objects[:cap(rec.Objects)], sentinel) {
						t.Fatalf("an append past one page's Objects wrote into page %d's", i)
					}
				}
			})
		}
	}
}

// span is the address range [lo, hi) one page's records of a kind lie in.
type span struct {
	page   int
	lo, hi uintptr
}

// spanOf returns the range the records ptr reads out of xs lie in.
func spanOf[X any, T any](page int, xs []X, ptr func(X) *T) span {
	s := span{page: page, lo: ^uintptr(0)}
	for _, x := range xs {
		p := uintptr(unsafe.Pointer(ptr(x)))
		s.lo, s.hi = min(s.lo, p), max(s.hi, p+unsafe.Sizeof(*ptr(x)))
	}
	return s
}

// disjoint fails t when two pages' ranges overlap.
func disjoint(t *testing.T, what string, spans []span) {
	t.Helper()
	spans = slices.DeleteFunc(slices.Clone(spans), func(s span) bool { return s.lo >= s.hi })
	slices.SortFunc(spans, func(a, b span) int { return cmp.Compare(a.lo, b.lo) })
	for k := 1; k < len(spans); k++ {
		if a, b := spans[k-1], spans[k]; b.lo < a.hi {
			t.Errorf("%s: page %d's [%#x, %#x) overlaps page %d's [%#x, %#x)", what, a.page, a.lo, a.hi, b.page, b.lo, b.hi)
		}
	}
}

// TestLoadPageReusesFetchSlab: on a warm browser, a page that starts
// after the last one drained takes that page's working record and fetch
// slab — lending them allocates nothing — and only a page larger than
// any before it grows the slab; after Expect, whose largest page the
// first slab is made for, none does.
func TestLoadPageReusesFetchSlab(t *testing.T) {
	specs := webpage.Table1()
	small := webpage.Generate(specs[6], sim.NewRNG(1)) // 119 objects
	large := webpage.Generate(specs[14], sim.NewRNG(1))
	for _, mode := range []Mode{ModeHTTP, ModeSPDY, ModeH2, ModeQUIC} {
		t.Run(string(mode), func(t *testing.T) {
			w := newWorld(1, true)
			b := w.browser(DefaultConfig(mode), 3)
			loadOnce(t, w, b, small)
			pl, slab := b.cur, unsafe.SliceData(b.cur.fetches)
			loadOnce(t, w, b, small)
			if b.cur != pl || unsafe.SliceData(b.cur.fetches) != slab {
				t.Fatal("a drained page's successor took a new record or slab")
			}
			loadOnce(t, w, b, large)
			if b.cur != pl || unsafe.SliceData(b.cur.fetches) == slab || len(b.cur.fetches) != len(large.Objects) {
				t.Fatal("a larger page did not grow the lent slab to its size")
			}
			sized := New(w.loop, w.net, w.prox, DefaultConfig(mode), sim.NewRNG(3))
			sized.Expect([]*webpage.Page{small, large})
			loadOnce(t, w, sized, small)
			slab = unsafe.SliceData(sized.cur.fetches)
			loadOnce(t, w, sized, large)
			if unsafe.SliceData(sized.cur.fetches) != slab || cap(sized.cur.fetches) != len(large.Objects) {
				t.Fatal("after Expect, the first fetch slab was not made for the largest page")
			}
			// Last: lend is called here without the Load that fills the
			// record in, which the invariant checker would read.
			invOn = false
			n := testing.AllocsPerRun(20, func() { b.lend(len(small.Objects)) })
			EnableInvariants()
			if n != 0 {
				t.Fatalf("lending a drained page's record allocates %v objects, want 0", n)
			}
		})
	}
}

// TestCheckLentCatchesALivePage: the invariant checker's recount at the
// moment of reuse panics when the page about to be lent still has
// fetches waiting — here a page the watchdog cut off, asked directly, as
// a lend that ignored the drain rule would ask.
func TestCheckLentCatchesALivePage(t *testing.T) {
	w := lossyWorld(4)
	cfg := DefaultConfig(ModeHTTP)
	cfg.PageTimeout = time.Second
	b := w.browser(cfg, 3)
	b.LoadPage(webpage.Generate(webpage.Table1()[0], sim.NewRNG(1)), nil)
	w.loop.Run(sim.Time(2 * time.Second))
	if pl := b.cur; !pl.finished || pl.drained() {
		t.Fatalf("the page is finished %t, drained %t: want it cut off with fetches waiting", pl.finished, pl.drained())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("checkLent passed a page with fetches still waiting")
		}
	}()
	b.checkLent(b.cur)
}
