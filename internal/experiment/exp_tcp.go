package experiment

import (
	"math"
	"time"

	"spdier/internal/browser"
	"spdier/internal/stats"
	"spdier/internal/tcpsim"
)

func init() {
	register("fig10", "Bytes in flight vs page load time", runFig10)
	register("fig11", "cwnd / ssthresh / retransmissions over a SPDY run", runFig11)
	register("fig12", "Idle-period zoom: cwnd reset, spurious RTO, ssthresh collapse", runFig12)
	register("fig13", "Retransmission bursts and per-connection impact", runFig13)
	register("fig17", "SPDY congestion window and retransmissions over LTE", runFig17)
	register("table2", "HTTP and SPDY with Reno vs Cubic", runTable2)
}

// runFig10 relates outstanding (unacknowledged) bytes to page load time:
// whichever protocol keeps more data in flight during a page's window
// loads that page faster.
func runFig10(h Harness) *Report {
	r := NewReport("fig10", "Bytes in flight vs page load time",
		"more outstanding bytes ⇒ lower page load time; SPDY's in-flight bytes grow slowly after idle")
	httpRes := cachedRun(Options{Mode: browser.ModeHTTP, Network: Net3G, Seed: h.Seed})
	spdyRes := cachedRun(Options{Mode: browser.ModeSPDY, Network: Net3G, Seed: h.Seed})

	type pagePoint struct{ inflight, plt float64 }
	collect := func(res *Result) []pagePoint {
		var pts []pagePoint
		for i, rec := range res.Records {
			if rec == nil {
				continue
			}
			start := float64(float64(i) * 60)
			var sum, n float64
			for _, s := range res.Samples {
				t := s.At.Seconds()
				if t >= start && t < start+rec.PLT().Seconds() {
					sum += float64(s.InFlightBytes)
					n++
				}
			}
			if n > 0 {
				pts = append(pts, pagePoint{sum / n / 1024, rec.PLT().Seconds()})
			}
		}
		return pts
	}
	corr := func(pts []pagePoint) float64 {
		var xs, ys []float64
		for _, p := range pts {
			xs = append(xs, p.inflight)
			ys = append(ys, p.plt)
		}
		mx, my := stats.Mean(xs), stats.Mean(ys)
		var num, dx, dy float64
		for i := range xs {
			num += float64((xs[i] - mx) * (ys[i] - my))
			dx += float64((xs[i] - mx) * (xs[i] - mx))
			dy += float64((ys[i] - my) * (ys[i] - my))
		}
		if dx == 0 || dy == 0 {
			return 0
		}
		return num / math.Sqrt(dx*dy)
	}

	hp, sp := collect(httpRes), collect(spdyRes)
	r.Printf("%-6s | %-24s | %-24s", "page", "HTTP inflightKB / PLT s", "SPDY inflightKB / PLT s")
	agree, total := 0, 0
	for i := 0; i < len(hp) && i < len(sp); i++ {
		winner := "HTTP"
		if sp[i].inflight > hp[i].inflight {
			winner = "SPDY"
		}
		faster := "HTTP"
		if sp[i].plt < hp[i].plt {
			faster = "SPDY"
		}
		if winner == faster {
			agree++
		}
		total++
		r.Printf("%-6d | %10.1f / %6.2f    | %10.1f / %6.2f    more-inflight=%s faster=%s",
			i, hp[i].inflight, hp[i].plt, sp[i].inflight, sp[i].plt, winner, faster)
	}
	if total > 0 {
		// The paper's per-page claim: whichever protocol keeps more data
		// outstanding loads that page faster.
		r.Metric("pages where more-inflight protocol is faster", float64(agree)/float64(total), "frac")
	}
	// Within-protocol correlations confound with page size (bigger pages
	// have both more in-flight data and longer PLTs); report them for
	// completeness only.
	r.Metric("HTTP corr(inflight, PLT) [size-confounded]", corr(hp), "r")
	r.Metric("SPDY corr(inflight, PLT) [size-confounded]", corr(sp), "r")
	return r
}

// cwndTrace renders tcp_probe-style samples for a single connection.
func cwndTrace(r *Report, rec *tcpsim.Recorder, connID string, from, to float64, step float64) {
	r.Printf("%-8s %8s %9s %10s %8s", "t[s]", "cwnd", "ssthresh", "inflightKB", "events")
	next := from
	var cw, ss float64
	var infl int
	events := ""
	rec.Each(func(s tcpsim.ProbeSample) bool {
		if s.ConnID != connID {
			return true
		}
		t := s.At.Seconds()
		if t < from {
			return true
		}
		if t > to {
			return false
		}
		for t >= next {
			r.Printf("%-8.0f %8.1f %9.1f %10.1f %8s", next, cw, ss, float64(infl)/1024, events)
			next += step
			events = ""
		}
		cw, ss, infl = s.Cwnd, s.Ssthresh, s.InFlight
		switch s.Event {
		case tcpsim.EvRetransmit:
			events += "R"
		case tcpsim.EvFastRetx:
			events += "F"
		case tcpsim.EvIdleRestart:
			events += "I"
		case tcpsim.EvUndo:
			events += "U"
		}
		return true
	})
}

func runFig11(h Harness) *Report {
	r := NewReport("fig11", "cwnd/ssthresh/outstanding data over one SPDY 3G run",
		"cwnd ceilings the outstanding data; cwnd and ssthresh fluctuate all run; bursty retransmissions throughout")
	res := cachedRun(Options{Mode: browser.ModeSPDY, Network: Net3G, Seed: h.Seed})
	cwndTrace(r, res.Recorder, "spdy00:s", 0, 1200, 30)

	var cwnds []float64
	res.Recorder.Each(func(s tcpsim.ProbeSample) bool {
		if s.ConnID == "spdy00:s" {
			cwnds = append(cwnds, s.Cwnd)
		}
		return true
	})
	r.Metric("retransmission events", float64(res.Recorder.Retransmissions()), "retx")
	r.Metric("cwnd mean", stats.Mean(cwnds), "segments")
	r.Metric("cwnd stddev (fluctuation)", stats.StdDev(cwnds), "segments")
	r.Metric("cwnd max", res.Recorder.MaxCwnd(), "segments")
	return r
}

func runFig12(h Harness) *Report {
	r := NewReport("fig12", "Zoom into three consecutive websites (40–190 s)",
		"after idle: cwnd reset to 10 (slow start after idle), spurious RTO during promotion, ssthresh collapse, then regrowth; no retx when the idle was too short for the radio to sleep")
	res := cachedRun(Options{Mode: browser.ModeSPDY, Network: Net3G, Seed: h.Seed})
	cwndTrace(r, res.Recorder, "spdy00:s", 40, 190, 5)

	// Event ledger for the window.
	counts := map[tcpsim.ProbeEvent]int{}
	res.Recorder.Each(func(s tcpsim.ProbeSample) bool {
		t := s.At.Seconds()
		if s.ConnID != "spdy00:s" || t < 40 || t > 190 {
			return true
		}
		switch s.Event {
		case tcpsim.EvRetransmit, tcpsim.EvFastRetx, tcpsim.EvIdleRestart, tcpsim.EvUndo, tcpsim.EvSpurious:
			counts[s.Event]++
		}
		return true
	})
	r.Metric("idle restarts (cwnd→IW) in window", float64(counts[tcpsim.EvIdleRestart]), "events")
	r.Metric("retransmissions in window", float64(counts[tcpsim.EvRetransmit]+counts[tcpsim.EvFastRetx]), "segments")
	r.Metric("undo events in window", float64(counts[tcpsim.EvUndo]), "events")
	return r
}

func runFig13(h Harness) *Report {
	r := NewReport("fig13", "Retransmission bursts",
		"HTTP: 117.3 retx/run but 2.9 per connection over 42.6 concurrent connections — bursts hit one stream while others proceed; SPDY: 67.3 retx all on the single connection")
	httpRes := sweepStats(h, Options{Mode: browser.ModeHTTP, Network: Net3G})
	spdyRes := sweepStats(h, Options{Mode: browser.ModeSPDY, Network: Net3G})

	r.Metric("HTTP mean retransmissions/run", meanRetxStats(httpRes), "retx")
	r.Metric("SPDY mean retransmissions/run", meanRetxStats(spdyRes), "retx")

	// Per-connection spread for HTTP and burst locality.
	var perConn, conns, singleFrac []float64
	for _, rs := range httpRes {
		if rs.RetxConns > 0 {
			perConn = append(perConn, rs.RetxPerConn)
		}
		singleFrac = append(singleFrac, rs.SingleConnBurstFrac)
		conns = append(conns, float64(rs.PeakConns))
	}
	r.Metric("HTTP retx per affected connection", stats.Mean(perConn), "retx/conn")
	r.Metric("HTTP peak concurrent connections", stats.Mean(conns), "conns")
	r.Metric("fraction of bursts confined to one connection", stats.Mean(singleFrac), "frac")

	// SPDY concentration: share of retransmissions on the busiest conn.
	var topShare []float64
	for _, rs := range spdyRes {
		if rs.RetxConns > 0 {
			topShare = append(topShare, rs.TopConnRetxShare)
		}
	}
	r.Metric("SPDY retx share on single connection", stats.Mean(topShare), "frac")
	return r
}

func runFig17(h Harness) *Report {
	r := NewReport("fig17", "SPDY cwnd and retransmissions over LTE",
		"retransmissions still occur after idle periods on LTE (promotion 400 ms beats small RTOs), but far less often than 3G")
	res := cachedRun(Options{Mode: browser.ModeSPDY, Network: NetLTE, Seed: h.Seed})
	cwndTrace(r, res.Recorder, "spdy00:s", 300, 800, 20)
	r.Metric("retransmissions/run (LTE SPDY)", float64(res.Recorder.Retransmissions()), "retx")

	// Do retransmissions follow idle exits?
	idleExits := res.Recorder.Filter(tcpsim.EvIdleRestart)
	retx := res.Recorder.Filter(tcpsim.EvRetransmit)
	nearIdle := 0
	for _, rt := range retx {
		for _, ie := range idleExits {
			d := rt.At.Sub(ie.At)
			if d >= 0 && d < 3*time.Second {
				nearIdle++
				break
			}
		}
	}
	if len(retx) > 0 {
		r.Metric("fraction of retx within 3 s of an idle exit", float64(nearIdle)/float64(len(retx)), "frac")
	}
	return r
}

// runTable2 sweeps TCP variant × protocol on 3G.
func runTable2(h Harness) *Report {
	r := NewReport("table2", "HTTP and SPDY with different TCP variants",
		"Cubic best avg PLT (SPDY-Cubic 8671 ms); avg throughput similar; SPDY-Cubic max cwnd 197 vs Reno 48; HTTP max cwnd 22")
	r.Printf("%-28s | %10s %10s | %10s %10s", "", "Reno HTTP", "Reno SPDY", "Cubic HTTP", "Cubic SPDY")
	type cell struct{ plt, avgTp, maxTp, avgCwnd, maxCwnd float64 }
	cells := map[string]cell{}
	for _, cc := range []string{"reno", "cubic"} {
		for _, mode := range []browser.Mode{browser.ModeHTTP, browser.ModeSPDY} {
			results := sweepStats(h, Options{Mode: mode, Network: Net3G, CC: cc})
			var plts []float64
			var avgTp, maxTp, avgCw, maxCw float64
			for _, rs := range results {
				plts = append(plts, rs.PLTs...)
				if rs.TpHasPos {
					avgTp += rs.TpAvgBps
				}
				if rs.TpMaxBps > maxTp {
					maxTp = rs.TpMaxBps
				}
				avgCw += rs.MeanCwnd
				if rs.MaxCwnd > maxCw {
					maxCw = rs.MaxCwnd
				}
			}
			n := float64(len(results))
			cells[cc+string(mode)] = cell{
				plt:     stats.Mean(plts) * 1000,
				avgTp:   avgTp / n / 1024,
				maxTp:   maxTp / 1024,
				avgCwnd: avgCw / n,
				maxCwnd: maxCw,
			}
		}
	}
	row := func(name string, f func(cell) float64) {
		r.Printf("%-28s | %10.1f %10.1f | %10.1f %10.1f", name,
			f(cells["reno"+string(browser.ModeHTTP)]), f(cells["reno"+string(browser.ModeSPDY)]),
			f(cells["cubic"+string(browser.ModeHTTP)]), f(cells["cubic"+string(browser.ModeSPDY)]))
	}
	row("Avg. page load (msec)", func(c cell) float64 { return c.plt })
	row("Avg. throughput (KBps)", func(c cell) float64 { return c.avgTp })
	row("Max. throughput (KBps)", func(c cell) float64 { return c.maxTp })
	row("Avg. cwnd (# segments)", func(c cell) float64 { return c.avgCwnd })
	row("Max. cwnd (# segments)", func(c cell) float64 { return c.maxCwnd })
	r.Metrics["cubic spdy plt ms"] = cells["cubic"+string(browser.ModeSPDY)].plt
	r.Metrics["reno spdy plt ms"] = cells["reno"+string(browser.ModeSPDY)].plt
	r.Metrics["cubic spdy max cwnd"] = cells["cubic"+string(browser.ModeSPDY)].maxCwnd
	r.Metrics["reno spdy max cwnd"] = cells["reno"+string(browser.ModeSPDY)].maxCwnd
	r.Metrics["cubic http max cwnd"] = cells["cubic"+string(browser.ModeHTTP)].maxCwnd
	return r
}
