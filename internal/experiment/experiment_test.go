package experiment

import (
	"testing"

	"spdier/internal/browser"
	"spdier/internal/stats"
)

// quickHarness keeps shape tests fast: two seeds per condition.
func quickHarness() Harness { return Harness{Runs: 2, Seed: 1} }

func TestRegistryCoversEveryTableAndFigure(t *testing.T) {
	want := []string{
		"table1", "table2",
		"fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10",
		"fig11", "fig12", "fig13", "fig14", "fig15", "fig16", "fig17", "fig18",
		"rttreset", "metricscache", "multiconn", "pipelining", "latebinding",
		"scale", "validate", "recovery", "protocols",
	}
	for _, id := range want {
		if _, ok := Get(id); !ok {
			t.Errorf("experiment %q not registered", id)
		}
	}
	if len(All()) != len(want) {
		t.Errorf("registry has %d experiments, expected %d", len(All()), len(want))
	}
	if len(IDs()) != len(All()) {
		t.Error("IDs() inconsistent")
	}
}

func TestRunDeterministicForSeed(t *testing.T) {
	a := Run(Options{Mode: browser.ModeSPDY, Network: Net3G, Seed: 5})
	b := Run(Options{Mode: browser.ModeSPDY, Network: Net3G, Seed: 5})
	pa, pb := a.PLTSeconds(), b.PLTSeconds()
	for i := range pa {
		if pa[i] != pb[i] {
			t.Fatalf("page %d: %v vs %v", i, pa[i], pb[i])
		}
	}
	if a.Retransmissions() != b.Retransmissions() {
		t.Fatalf("retx %d vs %d", a.Retransmissions(), b.Retransmissions())
	}
}

func TestVisitOrderFixedAcrossConditions(t *testing.T) {
	a := Run(Options{Mode: browser.ModeHTTP, Network: Net3G, Seed: 1})
	b := Run(Options{Mode: browser.ModeSPDY, Network: NetWiFi, Seed: 9})
	for i := range a.VisitOrder {
		if a.VisitOrder[i] != b.VisitOrder[i] {
			t.Fatal("visit order differs across conditions")
		}
	}
}

func TestAllRunsComplete(t *testing.T) {
	for _, net := range []NetworkKind{Net3G, NetLTE, NetWiFi} {
		for _, mode := range []browser.Mode{browser.ModeHTTP, browser.ModeSPDY} {
			res := Run(Options{Mode: mode, Network: net, Seed: 3})
			if len(res.Records) != 20 {
				t.Fatalf("%s/%s: %d records", net, mode, len(res.Records))
			}
			for i, rec := range res.Records {
				if rec == nil {
					t.Fatalf("%s/%s: page %d missing", net, mode, i)
				}
				if rec.Aborted {
					t.Errorf("%s/%s: page %d (%s) aborted", net, mode, i, rec.Page.Name)
				}
			}
		}
	}
}

// --- headline shape assertions: the paper's findings must hold ---

func TestShapeFig3No3GWinner(t *testing.T) {
	h := quickHarness()
	httpPLT := stats.Mean(allPLTStats(sweepStats(h, Options{Mode: browser.ModeHTTP, Network: Net3G})))
	spdyPLT := stats.Mean(allPLTStats(sweepStats(h, Options{Mode: browser.ModeSPDY, Network: Net3G})))
	ratio := spdyPLT / httpPLT
	// "SPDY does not clearly outperform HTTP over cellular": neither side
	// wins by anything near the wired 27-60%.
	if ratio < 0.80 || ratio > 1.35 {
		t.Fatalf("3G ratio %0.2f breaks the no-clear-winner finding (http=%.2fs spdy=%.2fs)",
			ratio, httpPLT, spdyPLT)
	}
}

func TestShapeFig4SPDYWinsOnWiFi(t *testing.T) {
	h := quickHarness()
	httpPLT := stats.Mean(allPLTStats(sweepStats(h, Options{Mode: browser.ModeHTTP, Network: NetWiFi})))
	spdyPLT := stats.Mean(allPLTStats(sweepStats(h, Options{Mode: browser.ModeSPDY, Network: NetWiFi})))
	if spdyPLT >= httpPLT {
		t.Fatalf("SPDY must win on WiFi: http=%.2fs spdy=%.2fs", httpPLT, spdyPLT)
	}
	imp := (httpPLT - spdyPLT) / httpPLT * 100
	if imp < 4 {
		t.Fatalf("WiFi improvement %.1f%% below the paper's 4%% floor", imp)
	}
}

func TestShapeFig5PhaseAsymmetry(t *testing.T) {
	httpRes := Run(Options{Mode: browser.ModeHTTP, Network: Net3G, Seed: 1})
	spdyRes := Run(Options{Mode: browser.ModeSPDY, Network: Net3G, Seed: 1})
	meanPhase := func(res *Result, f func(init, wait float64) float64) float64 {
		var v, n float64
		for _, rec := range res.Records {
			for _, or := range rec.Objects {
				if or.Done == 0 {
					continue
				}
				v += f(or.Init().Seconds(), or.Wait().Seconds())
				n++
			}
		}
		return v / n
	}
	httpInit := meanPhase(httpRes, func(i, _ float64) float64 { return i })
	spdyInit := meanPhase(spdyRes, func(i, _ float64) float64 { return i })
	httpWait := meanPhase(httpRes, func(_, w float64) float64 { return w })
	spdyWait := meanPhase(spdyRes, func(_, w float64) float64 { return w })
	if spdyInit > httpInit/5 {
		t.Fatalf("SPDY init %.0fms should be tiny vs HTTP %.0fms", spdyInit*1000, httpInit*1000)
	}
	if spdyWait < 2*httpWait {
		t.Fatalf("SPDY wait %.0fms should dwarf HTTP wait %.0fms", spdyWait*1000, httpWait*1000)
	}
}

func TestShapeFig13RetxConcentration(t *testing.T) {
	h := quickHarness()
	httpRetx := meanRetxStats(sweepStats(h, Options{Mode: browser.ModeHTTP, Network: Net3G}))
	spdyRetx := meanRetxStats(sweepStats(h, Options{Mode: browser.ModeSPDY, Network: Net3G}))
	if httpRetx <= spdyRetx {
		t.Fatalf("HTTP total retx (%.0f) should exceed SPDY's (%.0f)", httpRetx, spdyRetx)
	}
}

func TestShapeFig14PingPinsDCH(t *testing.T) {
	h := quickHarness()
	for _, mode := range []browser.Mode{browser.ModeHTTP, browser.ModeSPDY} {
		plain := sweepStats(h, Options{Mode: mode, Network: Net3G})
		ping := sweepStats(h, Options{Mode: mode, Network: Net3G, PingKeepalive: true})
		if pr, br := meanRetxStats(ping), meanRetxStats(plain); pr >= br {
			t.Errorf("%s: ping did not cut retransmissions (%.0f vs %.0f)", mode, pr, br)
		}
		pCDF := stats.NewCDF(allPLTStats(ping))
		bCDF := stats.NewCDF(allPLTStats(plain))
		if pCDF.At(8) <= bCDF.At(8) {
			t.Errorf("%s: P(PLT<8s) with ping %.2f not above %.2f", mode, pCDF.At(8), bCDF.At(8))
		}
		// Pinning DCH costs battery.
		var pe, be float64
		for i := range ping {
			pe += ping[i].RadioMJ
			be += plain[i].RadioMJ
		}
		if pe <= be {
			t.Errorf("%s: ping did not increase radio energy", mode)
		}
	}
}

func TestShapeFig16LTEFasterThan3G(t *testing.T) {
	h := quickHarness()
	for _, mode := range []browser.Mode{browser.ModeHTTP, browser.ModeSPDY} {
		g3 := stats.Mean(allPLTStats(sweepStats(h, Options{Mode: mode, Network: Net3G})))
		lte := stats.Mean(allPLTStats(sweepStats(h, Options{Mode: mode, Network: NetLTE})))
		if lte >= g3/2 {
			t.Errorf("%s: LTE %.2fs not substantially faster than 3G %.2fs", mode, lte, g3)
		}
	}
}

func TestShapeLTERetxFarBelow3G(t *testing.T) {
	h := quickHarness()
	g3 := meanRetxStats(sweepStats(h, Options{Mode: browser.ModeSPDY, Network: Net3G}))
	lte := meanRetxStats(sweepStats(h, Options{Mode: browser.ModeSPDY, Network: NetLTE}))
	if lte >= g3 {
		t.Fatalf("LTE retx %.0f not below 3G %.0f", lte, g3)
	}
	if lte == 0 {
		t.Fatal("LTE should still show some idle-exit retransmissions (Fig 17)")
	}
}

func TestShapeRTTResetFixHelps(t *testing.T) {
	h := quickHarness()
	base := sweepStats(h, Options{Mode: browser.ModeSPDY, Network: Net3G})
	fix := sweepStats(h, Options{Mode: browser.ModeSPDY, Network: Net3G, ResetRTTAfterIdle: true})
	bp, fp := stats.Mean(allPLTStats(base)), stats.Mean(allPLTStats(fix))
	// The fix's core, measurable claim: spurious retransmissions vanish.
	if meanRetxStats(fix) >= meanRetxStats(base)/2 {
		t.Fatalf("fix did not slash retransmissions: %.0f vs %.0f", meanRetxStats(fix), meanRetxStats(base))
	}
	// PLT must not regress materially on an undo-capable stack.
	if fp > bp*1.10 {
		t.Fatalf("§6.2.1 fix regressed SPDY PLT: %.2f vs %.2f", fp, bp)
	}
	// On a stack without effective undo — the condition the paper's
	// Figure 12 exhibits — the claimed PLT reduction materializes.
	baseNU := sweepStats(h, Options{Mode: browser.ModeSPDY, Network: Net3G, DisableUndo: true})
	fixNU := sweepStats(h, Options{Mode: browser.ModeSPDY, Network: Net3G, DisableUndo: true, ResetRTTAfterIdle: true})
	bn, fn := stats.Mean(allPLTStats(baseNU)), stats.Mean(allPLTStats(fixNU))
	if fn >= bn {
		t.Fatalf("fix did not reduce PLT on the no-undo stack: %.2f vs %.2f", fn, bn)
	}
}

func TestShapeTable2CubicBeatsRenoForSPDY(t *testing.T) {
	h := quickHarness()
	cubic := sweepStats(h, Options{Mode: browser.ModeSPDY, Network: Net3G, CC: "cubic"})
	reno := sweepStats(h, Options{Mode: browser.ModeSPDY, Network: Net3G, CC: "reno"})
	var cubicAvg, renoAvg float64
	for _, r := range cubic {
		cubicAvg += r.MeanCwnd
	}
	for _, r := range reno {
		renoAvg += r.MeanCwnd
	}
	cubicAvg /= float64(len(cubic))
	renoAvg /= float64(len(reno))
	// Table 2: SPDY-Cubic avg cwnd 52.11 vs Reno 24.16 — Cubic regrows
	// the window far more aggressively between loss episodes. (Both
	// variants share the same max ≈ the receive-window ceiling.)
	if cubicAvg <= renoAvg {
		t.Fatalf("Cubic avg cwnd %.1f not above Reno %.1f", cubicAvg, renoAvg)
	}
}

func TestShapeFig7TestPagesSPDYNotRescued(t *testing.T) {
	rep := runFig7(quickHarness())
	httpSame := rep.Metrics["http PLT, same domain"]
	spdySame := rep.Metrics["spdy PLT, same domain"]
	httpDiff := rep.Metrics["http PLT, different domains"]
	spdyDiff := rep.Metrics["spdy PLT, different domains"]
	// The §5.2 conclusion: even without interdependencies SPDY does not
	// pull ahead of HTTP on 3G.
	if spdySame < httpSame*0.9 || spdyDiff < httpDiff*0.9 {
		t.Fatalf("SPDY should not win the test pages: http=%.2f/%.2f spdy=%.2f/%.2f",
			httpSame, httpDiff, spdySame, spdyDiff)
	}
	// SPDY fires its requests in one burst.
	if span := rep.Metrics["spdy request span, same domain"]; span > 0.5 {
		t.Fatalf("SPDY request span %.2fs not a quick burst", span)
	}
}

func TestShapeFig8ProxyQueueDominates(t *testing.T) {
	rep := runFig8(Harness{Runs: 1, Seed: 1})
	wait := rep.Metrics["origin wait, mean"]
	queue := rep.Metrics["proxy queue delay, mean"]
	if wait > 25 {
		t.Fatalf("origin wait %.1fms departs from Figure 8's 14ms", wait)
	}
	if rep.Metrics["origin wait, max"] > 46 {
		t.Fatalf("origin wait max %.1fms above the 46ms ceiling", rep.Metrics["origin wait, max"])
	}
	if queue < 3*wait {
		t.Fatalf("proxy queue %.1fms does not dominate origin wait %.1fms", queue, wait)
	}
}

func TestShapeFig10MoreInflightLoadsFaster(t *testing.T) {
	rep := runFig10(Harness{Runs: 1, Seed: 2})
	if frac := rep.Metrics["pages where more-inflight protocol is faster"]; frac <= 0.5 {
		t.Fatalf("more-inflight protocol faster on only %.0f%% of pages", frac*100)
	}
}

func TestShapeMetricsCacheDisablingHelpsHTTP(t *testing.T) {
	h := quickHarness()
	on := stats.Mean(allPLTStats(sweepStats(h, Options{Mode: browser.ModeHTTP, Network: Net3G})))
	off := stats.Mean(allPLTStats(sweepStats(h, Options{Mode: browser.ModeHTTP, Network: Net3G, NoMetricsCache: true})))
	// §6.2.4: disabling caching should not hurt; stale metrics poison
	// fresh connections.
	if off > on*1.1 {
		t.Fatalf("disabling the metrics cache hurt badly: %.2f vs %.2f", off, on)
	}
}

func TestShapeLateBindingBeatsEarlyBinding(t *testing.T) {
	h := quickHarness()
	early := stats.Mean(allPLTStats(sweepStats(h, Options{Mode: browser.ModeSPDY, Network: Net3G, SPDYSessions: 8})))
	late := stats.Mean(allPLTStats(sweepStats(h, Options{Mode: browser.ModeSPDY, Network: Net3G, SPDYSessions: 8, SPDYLateBinding: true})))
	if late >= early {
		t.Fatalf("late binding (%.2fs) did not beat early binding (%.2fs)", late, early)
	}
}

func TestEveryExperimentRunsWithoutPanic(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment")
	}
	h := Harness{Runs: 1, Seed: 1}
	for _, spec := range All() {
		spec := spec
		t.Run(spec.ID, func(t *testing.T) {
			rep := spec.Run(h)
			if rep == nil || rep.ID != spec.ID {
				t.Fatalf("report mismatch for %s", spec.ID)
			}
			if rep.String() == "" {
				t.Fatal("empty report")
			}
		})
	}
}
