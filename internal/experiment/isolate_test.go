package experiment

import (
	"testing"
	"time"

	"spdier/internal/browser"
	"spdier/internal/netem"
	"spdier/internal/proxy"
	"spdier/internal/rrc"
	"spdier/internal/sim"
	"spdier/internal/tcpsim"
	"spdier/internal/trace"
	"spdier/internal/webpage"
)

// TestIsolateCleanHTTP loads pages over a lossless, deeply-buffered 3G
// path: any fast retransmissions here indicate a protocol-logic bug
// rather than genuine loss. RTO retransmissions can still occur
// (promotion-delay spurious timeouts are the point of the paper).
func TestIsolateCleanHTTP(t *testing.T) {
	isolateCleanHTTP(t, false)
}

// TestIsolateCleanHTTPTraced re-runs the scenario with a wire log on the
// path: one line for each of the first 100,000 TCP segments sent.
func TestIsolateCleanHTTPTraced(t *testing.T) {
	if testing.Short() {
		t.Skip("diagnostic")
	}
	isolateCleanHTTP(t, true)
}

func isolateCleanHTTP(t *testing.T, traced bool) {
	t.Helper()
	loop := sim.NewLoop()
	radio := rrc.NewMachine(loop, rrc.Profile3G())
	pc := netem.Profile3G()
	pc.Up.LossRate, pc.Down.LossRate = 0, 0
	pc.Up.QueueBytes, pc.Down.QueueBytes = 16<<20, 16<<20
	path := netem.NewPath(loop, pc, sim.NewRNG(3), radio)
	net := tcpsim.NewNetwork(loop, path)
	if traced {
		wire := wireLog{max: 100000}
		wire.install(net)
		defer wire.flush(t)
	}
	rec := tcpsim.NewRecorder()
	origin := proxy.NewOrigin(proxy.DefaultOriginConfig(), sim.NewRNG(4))
	prox := proxy.New(loop, origin)
	bcfg := browser.DefaultConfig(browser.ModeHTTP)
	bcfg.ProxyTCP.Probe = rec
	bcfg.ProxyTCP.Metrics = tcpsim.NewMetricsCache()
	br := browser.New(loop, net, prox, bcfg, sim.NewRNG(5))
	pages := GeneratePages(webpage.Table1(), 7)
	var plts []float64
	for i := 0; i < 5; i++ {
		page := pages[i]
		loop.At(sim.Time(i)*sim.Time(60*time.Second), func() {
			br.LoadPage(page, func(pr *trace.PageRecord) {
				plts = append(plts, pr.PLT().Seconds())
				if pr.Aborted {
					t.Errorf("page %s aborted", pr.Page.Name)
					stuck := 0
					for _, or := range pr.Objects {
						if or.Done == 0 && stuck < 8 {
							stuck++
							t.Logf("  stuck obj %d kind=%s dom=%s disc=%v req=%v fb=%v conn=%q",
								or.Obj.ID, or.Obj.Kind, or.Obj.Domain, or.Discovered, or.Requested, or.FirstByte, or.ConnID)
						}
					}
				}
			})
		})
	}
	loop.Run(sim.Time(360 * time.Second))
	t.Logf("plts=%.2v", plts)
	t.Logf("retx=%d fast=%d spurious=%d idle=%d", rec.Count(tcpsim.EvRetransmit),
		rec.Count(tcpsim.EvFastRetx), rec.Count(tcpsim.EvSpurious), rec.Count(tcpsim.EvIdleRestart))
	// Fast retransmits on a lossless path can only come from duplicate
	// ACKs provoked by spurious RTO retransmissions landing after their
	// originals — the paper's pathology, not a protocol bug. Anything
	// beyond that small collateral indicates a logic error.
	if fast, spur := rec.Count(tcpsim.EvFastRetx), rec.Count(tcpsim.EvSpurious); fast > spur {
		t.Errorf("fast retransmissions (%d) exceed spurious-RTO collateral (%d)", fast, spur)
	}
}
