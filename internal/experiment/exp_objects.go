package experiment

import (
	"time"

	"spdier/internal/browser"
	"spdier/internal/stats"
	"spdier/internal/webpage"
)

func init() {
	register("fig5", "Object download time split (init/send/wait/recv)", runFig5)
	register("fig6", "Object request patterns for four websites", runFig6)
	register("fig7", "Synthetic 50-object test pages, same vs different domains", runFig7)
}

// runFig5 splits object download time into the four phases of Figure 5:
// HTTP pays in initialization (connection setup / pool wait), SPDY pays
// in wait (responses queue behind the single congestion window).
func runFig5(h Harness) *Report {
	r := NewReport("fig5", "Object download time split",
		"HTTP: large init (handshake or pool wait); SPDY: near-zero init but wait far larger, negating the setup savings; send ≈0 for both")
	for _, mode := range []browser.Mode{browser.ModeHTTP, browser.ModeSPDY} {
		perSite := make(map[int][4]float64)
		counts := make(map[int]int)
		// Full Results are needed (per-object phase splits), so stream
		// them through SweepEach: seed order in, released after folding —
		// identical accumulation order to the old sweep, bounded memory.
		sweepEach(h, Options{Mode: mode, Network: Net3G}, func(res *Result) {
			for i, rec := range res.Records {
				if rec == nil {
					continue
				}
				site := res.VisitOrder[i] + 1
				acc := perSite[site]
				for _, or := range rec.Objects {
					if or.Done == 0 {
						continue
					}
					acc[0] += float64(or.Init().Seconds() * 1000)
					acc[1] += float64(or.Send().Seconds() * 1000)
					acc[2] += float64(or.Wait().Seconds() * 1000)
					acc[3] += float64(or.Recv().Seconds() * 1000)
					counts[site]++
				}
				perSite[site] = acc
			}
		})
		r.Printf("-- %s --", mode)
		r.Printf("%-5s %10s %10s %10s %10s  (avg per object, ms)", "site", "init", "send", "wait", "recv")
		var tInit, tWait, tRecv, tN float64
		for site := 1; site <= 20; site++ {
			n := float64(counts[site])
			if n == 0 {
				continue
			}
			acc := perSite[site]
			r.Printf("%-5d %10.0f %10.0f %10.0f %10.0f", site, acc[0]/n, acc[1]/n, acc[2]/n, acc[3]/n)
			tInit += acc[0]
			tWait += acc[2]
			tRecv += acc[3]
			tN += n
		}
		r.Metric(string(mode)+" mean init", tInit/tN, "ms")
		r.Metric(string(mode)+" mean wait", tWait/tN, "ms")
		r.Metric(string(mode)+" mean recv", tRecv/tN, "ms")
	}
	return r
}

// runFig6 shows when objects are requested: SPDY requests arrive in
// dependency-driven steps rather than all at once; HTTP trickles
// continuously as connections free up.
func runFig6(h Harness) *Report {
	r := NewReport("fig6", "Object request patterns",
		"SPDY requests objects in steps (JS/CSS interdependencies gate discovery); HTTP requests continuously as connections free")
	// Two news sites and two photo/video-heavy sites, as in the paper.
	sites := []int{7, 15, 12, 18}
	for _, mode := range []browser.Mode{browser.ModeHTTP, browser.ModeSPDY} {
		res := cachedRun(Options{Mode: mode, Network: Net3G, Seed: h.Seed})
		r.Printf("-- %s --", mode)
		for _, site := range sites {
			for i, rec := range res.Records {
				if rec == nil || res.VisitOrder[i]+1 != site {
					continue
				}
				// Cumulative requests per 500 ms bucket for the first 10 s.
				bins := stats.NewBinSeries(0.5)
				waves := 0
				for _, or := range rec.Objects {
					bins.Add(or.Requested.Sub(rec.Start).Seconds(), 1)
					if or.Obj.Wave > waves {
						waves = or.Obj.Wave
					}
				}
				cum := 0.0
				line := ""
				for b := 0; b < 20 && b < len(bins.Bins); b++ {
					cum += bins.Bins[b]
					line += sprintf3(cum)
				}
				r.Printf("site %2d (%-14s) waves=%d objs=%3d | cum req per 0.5s: %s",
					site, rec.Page.Category, waves, len(rec.Objects), line)
			}
		}
	}
	r.Printf("note: each column is a 0.5 s bucket; SPDY jumps in steps at wave boundaries, HTTP climbs gradually")
	return r
}

func sprintf3(v float64) string {
	const digits = "0123456789"
	n := int(v)
	if n > 999 {
		n = 999
	}
	return " " + string([]byte{digits[n/100], digits[(n/10)%10], digits[n%10]})
}

// runFig7 runs the §5.2 validation pages: 50 images with no
// interdependencies, all on one domain vs each on its own domain.
func runFig7(h Harness) *Report {
	r := NewReport("fig7", "50-object test pages",
		"HTTP 5.29 s (same domain) / 6.80 s (different domains); SPDY 7.22 s / 8.38 s — removing interdependencies does not rescue SPDY; prioritization alone is not a panacea")
	for _, tc := range []struct {
		name string
		same bool
	}{{"same domain", true}, {"different domains", false}} {
		for _, mode := range []browser.Mode{browser.ModeHTTP, browser.ModeSPDY} {
			var plts, spans []float64
			for i := 0; i < h.Runs; i++ {
				res := Run(Options{
					Mode:       mode,
					Network:    Net3G,
					Seed:       h.Seed + uint64(i),
					Pages:      []*webpage.Page{webpage.TestPage(tc.same)},
					FastOrigin: true, // the paper's dedicated test server
				})
				rec := res.Records[0]
				plts = append(plts, rec.PLT().Seconds())
				// Span between the first and last image request measures
				// "requests all the images in quick succession".
				var first, last time.Duration
				for _, or := range rec.Objects {
					if or.Obj.ID == 0 {
						continue
					}
					d := or.Requested.Sub(rec.Start)
					if first == 0 || d < first {
						first = d
					}
					if d > last {
						last = d
					}
				}
				spans = append(spans, (last - first).Seconds())
			}
			r.Metric(string(mode)+" PLT, "+tc.name, stats.Mean(plts), "s")
			r.Metric(string(mode)+" request span, "+tc.name, stats.Mean(spans), "s")
		}
	}
	return r
}
