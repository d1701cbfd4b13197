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

func BenchmarkHTTPRequestCycle(b *testing.B) {
	const objects = 120
	invOn = false
	defer EnableInvariants()
	for _, domains := range []int{4, 40} {
		page := flatPage(objects, domains)
		b.Run(fmt.Sprintf("domains=%d", domains), func(b *testing.B) {
			cfg := DefaultConfig(ModeHTTP)
			cfg.Beacons = false
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w := newWorld(1, false)
				br := w.browser(cfg, 3)
				var rec *trace.PageRecord
				br.LoadPage(page, func(pr *trace.PageRecord) { rec = pr })
				w.loop.Run(sim.Time(cfg.PageTimeout))
				if rec == nil || rec.Aborted || len(rec.Objects) != objects {
					b.Fatalf("load did not complete: %+v", rec)
				}
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			requests := float64(b.N * objects)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/requests, "ns/request")
			b.ReportMetric(float64(after.Mallocs-before.Mallocs)/requests, "allocs/request")
		})
	}
}
