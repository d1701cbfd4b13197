package experiment

import (
	"spdier/internal/browser"
	"spdier/internal/stats"
)

func init() {
	register("pipelining", "Extension: HTTP/1.1 pipelining (untestable in the paper)", runPipelining)
	register("latebinding", "Extension: SPDY over N connections with late binding (§6.2 proposal)", runLateBinding)
}

// runPipelining evaluates the mode the paper could not (Squid's
// pipelining support was rudimentary): HTTP with several outstanding
// requests per connection. Pipelining removes request round trips but
// keeps HTTP/1.1's in-order response rule, so head-of-line blocking —
// the very problem SPDY's multiplexing removes — caps the benefit.
func runPipelining(h Harness) *Report {
	r := NewReport("pipelining", "HTTP/1.1 pipelining over 3G",
		"not measured in the paper (Squid limitation); §2.1 predicts improvement bounded by head-of-line blocking")

	// This experiment needs full Results (it walks per-object records),
	// so it streams them through SweepEach: strictly seed order, each
	// Result released after folding. The flat accumulation order — and
	// therefore every reported bit — matches the old store-everything
	// sweep, at bounded memory.
	type pipeAgg struct {
		pltSum float64
		pltN   int
		// Init time should collapse (requests no longer wait for a free
		// connection), like SPDY's.
		initSum, initN float64
	}
	fold := func(agg *pipeAgg) func(*Result) {
		return func(res *Result) {
			for _, rec := range res.Records {
				if rec == nil {
					continue
				}
				agg.pltSum += rec.PLT().Seconds()
				agg.pltN++
				for _, or := range rec.Objects {
					if or.Done != 0 {
						agg.initSum += float64(or.Init().Seconds() * 1000)
						agg.initN++
					}
				}
			}
		}
	}
	var plain, piped, spdyR pipeAgg
	sweepEach(h, Options{Mode: browser.ModeHTTP, Network: Net3G}, fold(&plain))
	sweepEach(h, Options{Mode: browser.ModeHTTP, Network: Net3G, Pipelining: true}, fold(&piped))
	sweepEach(h, Options{Mode: browser.ModeSPDY, Network: Net3G}, fold(&spdyR))

	mean := func(a *pipeAgg) float64 {
		if a.pltN == 0 {
			return 0
		}
		return a.pltSum / float64(a.pltN)
	}
	pm, qm, sm := mean(&plain), mean(&piped), mean(&spdyR)
	r.Metric("HTTP mean PLT", pm, "s")
	r.Metric("HTTP+pipelining mean PLT", qm, "s")
	r.Metric("SPDY mean PLT", sm, "s")
	r.Metric("pipelining improvement over HTTP", 100*(pm-qm)/pm, "%")

	r.Metric("HTTP mean init", plain.initSum/plain.initN, "ms")
	r.Metric("HTTP+pipelining mean init", piped.initSum/piped.initN, "ms")
	return r
}

// runLateBinding evaluates the fix §6.2 sketches for the failed §6.1
// experiment: keep SPDY's burst of early requests, but deliver each
// response over whichever TCP connection has an open window right now,
// so one connection's spurious-timeout stall no longer delays every
// object pinned to it.
func runLateBinding(h Harness) *Report {
	r := NewReport("latebinding", "SPDY striped with late binding",
		"§6.2: late binding of responses to available connections should recover the multi-connection benefit that early binding squanders")
	single := sweepStats(h, Options{Mode: browser.ModeSPDY, Network: Net3G, SPDYSessions: 1})
	early := sweepStats(h, Options{Mode: browser.ModeSPDY, Network: Net3G, SPDYSessions: 8})
	late := sweepStats(h, Options{Mode: browser.ModeSPDY, Network: Net3G, SPDYSessions: 8, SPDYLateBinding: true})

	sm, em, lm := stats.Mean(allPLTStats(single)), stats.Mean(allPLTStats(early)), stats.Mean(allPLTStats(late))
	r.Metric("SPDY mean PLT, 1 connection", sm, "s")
	r.Metric("SPDY mean PLT, 8 early-bound", em, "s")
	r.Metric("SPDY mean PLT, 8 late-bound", lm, "s")
	r.Metric("late vs early improvement", 100*(em-lm)/em, "%")
	r.Metric("late vs single improvement", 100*(sm-lm)/sm, "%")
	r.Metric("retx/run, 8 early-bound", meanRetxStats(early), "retx")
	r.Metric("retx/run, 8 late-bound", meanRetxStats(late), "retx")
	return r
}
