// Quickstart: load one real-world-shaped page over an emulated 3G
// network with HTTP and with SPDY, and print the page load time and the
// per-object phase breakdown — the smallest possible use of the public
// simulation API.
package main

import (
	"fmt"

	"spdier/internal/browser"
	"spdier/internal/netem"
	"spdier/internal/proxy"
	"spdier/internal/rrc"
	"spdier/internal/sim"
	"spdier/internal/tcpsim"
	"spdier/internal/trace"
	"spdier/internal/webpage"
)

func main() {
	// The page: site 7 from the paper's Table 1 (a news site, ~116
	// objects across ~28 domains).
	spec := webpage.Table1()[6]
	page := webpage.Generate(spec, sim.NewRNG(42))
	fmt.Printf("page: %s — %d objects, %d domains, %.0f KB\n\n",
		page.Name, len(page.Objects), len(page.Domains()), float64(page.TotalBytes())/1024)

	for _, mode := range []browser.Mode{browser.ModeHTTP, browser.ModeSPDY} {
		// A fresh 3G world per protocol: radio state machine, shaped
		// path, TCP demux, origin model, proxy host, browser.
		loop := sim.NewLoop()
		rng := sim.NewRNG(1)
		radio := rrc.NewMachine(loop, rrc.Profile3G())
		path := netem.NewPath(loop, netem.Profile3G(), rng.Fork(1), radio)
		network := tcpsim.NewNetwork(loop, path)
		origin := proxy.NewOrigin(proxy.DefaultOriginConfig(), rng.Fork(2))
		prox := proxy.New(loop, origin)
		br := browser.New(loop, network, prox, browser.DefaultConfig(mode), rng.Fork(3))

		var rec *trace.PageRecord
		br.LoadPage(page, func(pr *trace.PageRecord) { rec = pr })
		loop.Run(120 * sim.Second)

		fmt.Printf("%s:  page load time %.2fs\n", mode, rec.PLT().Seconds())
		fmt.Printf("  mean object phases: init=%v wait=%v recv=%v\n",
			rec.MeanPhase((*trace.ObjectRecord).Init).Round(1e6),
			rec.MeanPhase((*trace.ObjectRecord).Wait).Round(1e6),
			rec.MeanPhase((*trace.ObjectRecord).Recv).Round(1e6))
		fmt.Printf("  radio promotions: %d, radio energy: %.1f J\n\n",
			radio.Promotions(), radio.EnergyMilliJoules()/1000)
	}
}
