package main

import (
	"fmt"

	"spdier/internal/stats"
)

// mix averages a unit cost over conditions, weighted by how often each
// condition incurred it. When nothing carries weight it is the plain
// mean: a sizer that no condition uses still has a unit cost.
type mix struct {
	n, weight, weighted, plain float64
}

func (m *mix) add(weight, value float64) {
	m.n++
	m.weight += weight
	m.weighted += weight * value
	m.plain += value
}

func (m mix) value() float64 {
	if m.weight > 0 {
		return m.weighted / m.weight
	}
	return m.plain / m.n
}

// ledgerLayers are the layers the replay prices, in ledger order.
var ledgerLayers = append([]string{"sim", "netem", "tcpsim"}, sizerLayers...)

// shares is the cost ledger proper: the share of runNS nanoseconds of
// experiment.Run time that each replayed layer accounts for, and the
// residual share no layer claims. The residual is defined as the rest,
// so the sum is 1 by construction; what can go wrong is a layer priced
// at more than the run cost, which shows as a negative residual.
func shares(runNS float64, layerNS map[string]float64) (layers map[string]float64, residual float64) {
	layers, residual = map[string]float64{}, 1
	for _, name := range ledgerLayers {
		layers[name] = layerNS[name] / runNS
		residual -= layers[name]
	}
	return layers, residual
}

// metrics turns the ledger's counts and unit costs into the per-layer
// figures it can supply; ratios are sums over conditions divided by
// sums, so a workload with two conditions reports their mixture.
func (l *ledger) metrics() map[string]float64 {
	var pages, runNS, fired, pkts, dropped, conns, promotions, energy float64
	var retx, spurious, requests, queueMS, plt, objects float64
	layerNS := map[string]float64{}
	var simNS, netemNS, segNS, segAllocs, setupUS, setupAllocs mix
	sizerNS, sizerAllocs := map[string]*mix{}, map[string]*mix{}
	for _, name := range sizerLayers {
		sizerNS[name], sizerAllocs[name] = &mix{}, &mix{}
	}

	for _, label := range l.order {
		cl := l.conds[label]
		u := cl.unit
		cFired := float64(cl.fired)
		cPkts := float64(cl.up.Sent + cl.down.Sent)
		cSegs := float64(cl.down.Sent)
		cConns := float64(cl.conns)
		pages += float64(cl.pages)
		runNS += cl.runNS
		fired += cFired
		pkts += cPkts
		dropped += float64(drops(cl.up) + drops(cl.down))
		conns += cConns
		promotions += float64(cl.promotions)
		energy += cl.energyMJ
		retx += float64(cl.retx)
		spurious += float64(cl.spurious)
		requests += float64(cl.requests)
		queueMS += float64(cl.queueDelay) / 1e6
		plt += cl.pltSum
		objects += float64(cl.objects)

		layerNS["sim"] += cFired * u.simNS
		layerNS["netem"] += cPkts * u.netemNS
		layerNS["tcpsim"] += cSegs * u.segNS
		simNS.add(cFired, u.simNS)
		netemNS.add(cPkts, u.netemNS)
		segNS.add(cSegs, u.segNS)
		segAllocs.add(cSegs, u.segAllocs)
		setupUS.add(cConns, u.setupUS)
		setupAllocs.add(cConns, u.setupAllocs)
		for _, name := range sizerLayers {
			calls := 0.0
			if sizerOf(cl.opts.Mode) == name {
				calls = 2 * float64(cl.requests)
			}
			layerNS[name] += calls * u.sizerNS[name]
			sizerNS[name].add(calls, u.sizerNS[name])
			sizerAllocs[name].add(calls, u.sizerAllocs[name])
		}
	}
	layerShare, residual := shares(runNS, layerNS)

	m := map[string]float64{
		"sim.events_per_page":          fired / pages,
		"sim.stack_ns_per_event":       runNS / fired,
		"sim.ns_per_event":             simNS.value(),
		"netem.packets_per_page":       pkts / pages,
		"netem.ns_per_packet":          netemNS.value(),
		"netem.drops_per_kpkt":         1000 * dropped / pkts,
		"rrc.promotions_per_page":      promotions / pages,
		"rrc.energy_mj_per_page":       energy / pages,
		"tcpsim.conns_per_page":        conns / pages,
		"tcpsim.conn_setup_us":         setupUS.value(),
		"tcpsim.conn_setup_allocs":     setupAllocs.value(),
		"tcpsim.ns_per_segment":        segNS.value(),
		"tcpsim.allocs_per_segment":    segAllocs.value(),
		"tcpsim.retx_per_page":         retx / pages,
		"tcpsim.spurious_per_page":     spurious / pages,
		"httpwire.ns_per_size":         sizerNS["httpwire"].value(),
		"httpwire.allocs_per_size":     sizerAllocs["httpwire"].value(),
		"spdy.ns_per_frame_size":       sizerNS["spdy"].value(),
		"spdy.allocs_per_frame_size":   sizerAllocs["spdy"].value(),
		"h2.ns_per_header_size":        sizerNS["h2"].value(),
		"h2.allocs_per_header_size":    sizerAllocs["h2"].value(),
		"proxy.requests_per_page":      requests / pages,
		"proxy.queue_delay_ms_mean":    queueMS / requests,
		"browser.sim_plt_mean_s":       plt / pages,
		"browser.residual_ms_per_page": residual * runNS / 1e6 / pages,
		"webpage.objects_per_page":     objects / pages,
	}
	for _, name := range ledgerLayers {
		m[name+".self_share"] = layerShare[name]
	}
	return m
}

// runPercentiles reports the median run time and the tail percentile
// the sample count supports, capped at the p90 the metric is named for;
// note says which percentile the tail is when it is not the p90.
func runPercentiles(runMS []float64) (p50, tail float64, note string) {
	n := len(runMS)
	p := tailPercentile(n)
	if p > 90 {
		p = 90
	}
	q := stats.Quantiles(runMS, 0.5, p/100)
	if p < 90 {
		note = fmt.Sprintf("p%g: %d samples support no higher percentile", p, n)
	}
	return q[0], q[1], note
}
