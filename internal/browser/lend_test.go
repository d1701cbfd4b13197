package browser

import (
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

// TestLoadPageReusesFetchSlab: on a warm browser, a page that starts
// after the last one drained takes that page's working record and fetch
// slab — lending them allocates nothing — and only a page larger than
// any before it grows the slab.
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
