package experiment

import (
	"fmt"
	"testing"
	"time"

	"spdier/internal/browser"
	"spdier/internal/proxy"
	"spdier/internal/sim"
	"spdier/internal/tcpsim"
	"spdier/internal/trace"
	"spdier/internal/webpage"
)

// runMonolith is a copy of the pre-refactor Run(): the monolithic wiring
// that assigned congestion control, the loss-recovery arms and the idle
// policy directly onto bcfg.ProxyTCP, before those knobs moved behind
// transport.Spec. It is kept verbatim as the reference implementation
// for the layering-equivalence regression below — if the composed stack
// ever drifts from what the direct assignments produced, the probe
// traces diverge here before any golden moves.
func runMonolith(opts Options) *Result {
	opts = opts.withDefaults()
	loop := sim.NewLoop()
	rng := sim.NewRNG(opts.Seed)
	net, radio := buildNetwork(loop, opts, rng)

	var rec *tcpsim.Recorder
	if opts.LeanProbe {
		rec = tcpsim.NewRecorderRareOnly()
	} else {
		rec = tcpsim.NewRecorderStride(opts.ProbeStride)
	}
	ocfg := proxy.DefaultOriginConfig()
	if opts.FastOrigin {
		ocfg = proxy.FastOriginConfig()
	}
	origin := proxy.NewOrigin(ocfg, rng.Fork(0x0417))
	prox := proxy.New(loop, origin)

	bcfg := browser.DefaultConfig(opts.Mode)
	bcfg.ProxyTCP.Probe = rec
	bcfg.ProxyTCP.CC = opts.CC
	bcfg.ProxyTCP.SlowStartAfterIdle = !opts.SlowStartAfterIdleOff
	bcfg.ProxyTCP.ResetRTTAfterIdle = opts.ResetRTTAfterIdle
	bcfg.ProxyTCP.DisableUndo = opts.DisableUndo
	bcfg.ProxyTCP.TLP = opts.TLP
	bcfg.ProxyTCP.RACK = opts.RACK
	bcfg.ProxyTCP.FRTO = opts.FRTO
	if !opts.NoMetricsCache {
		bcfg.ProxyTCP.Metrics = tcpsim.NewMetricsCache()
	}
	bcfg.SPDYSessions = opts.SPDYSessions
	bcfg.SPDYLateBinding = opts.SPDYLateBinding
	bcfg.Pipelining = opts.Pipelining
	bcfg.PipelineDepth = 4
	bcfg.Beacons = !opts.NoBeacons
	br := browser.New(loop, net, prox, bcfg, rng.Fork(0xB0B))

	pages := opts.Pages
	if pages == nil {
		pages = GeneratePages(opts.Sites, opts.Seed)
	}
	order := VisitOrder(len(pages))

	res := &Result{
		Opts:       opts,
		VisitOrder: order,
		Recorder:   rec,
		Proxy:      prox,
		Net:        net,
		Radio:      radio,
	}

	records := make([]*trace.PageRecord, len(order))
	for i, pi := range order {
		i, pi := i, pi
		page := pages[pi]
		res.Pages = append(res.Pages, page)
		loop.At(sim.Time(i)*sim.Time(opts.ThinkTime), func() {
			br.LoadPage(page, func(pr *trace.PageRecord) { records[i] = pr })
		})
	}

	if opts.PingKeepalive {
		var ping func()
		ping = func() {
			net.Path().AtoB.Send("ping", opts.PingBytes)
			loop.After(opts.PingInterval, ping)
		}
		loop.After(opts.PingInterval, ping)
	}

	end := sim.Time(len(order))*sim.Time(opts.ThinkTime) + sim.Time(opts.ThinkTime)
	var sampler func()
	sampler = func() {
		inflight := 0
		for _, c := range br.ProxyConns() {
			inflight += c.InFlightBytes()
		}
		res.Samples = append(res.Samples, Sample{
			At:            loop.Now(),
			InFlightBytes: inflight,
			DownlinkBytes: net.Path().BtoA.Stats().Bytes,
			ActiveConns:   br.ActiveConns(),
		})
		if loop.Now() < end {
			loop.After(opts.SampleEvery, sampler)
		}
	}
	loop.After(opts.SampleEvery, sampler)

	loop.Run(end)

	incomplete := func() bool {
		for _, rec := range records {
			if rec == nil {
				return true
			}
		}
		return false
	}
	if incomplete() {
		lastStart := sim.Time(len(order)-1) * sim.Time(opts.ThinkTime)
		hardCap := lastStart + sim.Time(bcfg.PageTimeout) + sim.Second
		if hardCap > end {
			loop.Run(hardCap)
		}
	}
	res.Records = records
	for _, rec := range records {
		if rec == nil {
			res.Incomplete++
		}
	}
	res.Duration = loop.Now()
	res.Fired = loop.Fired()
	if radio != nil {
		res.RadioMJ = radio.EnergyMilliJoules()
	}
	net.ReleaseRuntime()
	loop.Release()
	return res
}

// layeringCombos enumerates {congestion control} × {loss-recovery arms}
// × {multiplexing mode}: every dimension the transport refactor moved
// behind Spec. The arm set includes each fix alone and all together, so
// a composition bug that only bites when two layers interact (e.g. RACK
// reordering timers under a composed CC hook) cannot hide.
func layeringCombos() []Options {
	arms := []struct {
		name            string
		tlp, rack, frto bool
	}{
		{"none", false, false, false},
		{"tlp", true, false, false},
		{"rack", false, true, false},
		{"frto", false, false, true},
		{"all", true, true, true},
	}
	var combos []Options
	for _, cc := range []string{"cubic", "reno"} {
		for _, arm := range arms {
			for _, mode := range []browser.Mode{browser.ModeHTTP, browser.ModeSPDY} {
				combos = append(combos, Options{
					Mode:        mode,
					Network:     Net3G,
					Sites:       webpage.Table1()[:2],
					Seed:        11,
					ThinkTime:   5 * time.Second,
					CC:          cc,
					TLP:         arm.tlp,
					RACK:        arm.rack,
					FRTO:        arm.frto,
					ProbeStride: 1,
				})
			}
		}
	}
	return combos
}

func comboName(o Options) string {
	return fmt.Sprintf("%s/%s/tlp=%t,rack=%t,frto=%t", o.CC, o.Mode, o.TLP, o.RACK, o.FRTO)
}

// assertRunsIdentical requires two Results to be bit-for-bit the same
// simulation: event counts, durations, page load times, the
// retransmission ledger and the full probe trace sample by sample.
func assertRunsIdentical(t *testing.T, name string, want, got *Result) {
	t.Helper()
	if want.Fired != got.Fired {
		t.Errorf("%s: Fired %d vs %d", name, want.Fired, got.Fired)
	}
	if want.Duration != got.Duration {
		t.Errorf("%s: Duration %v vs %v", name, want.Duration, got.Duration)
	}
	if wr, gr := want.Retransmissions(), got.Retransmissions(); wr != gr {
		t.Errorf("%s: Retransmissions %d vs %d", name, wr, gr)
	}
	wp, gp := want.PLTSeconds(), got.PLTSeconds()
	if len(wp) != len(gp) {
		t.Fatalf("%s: PLT count %d vs %d", name, len(wp), len(gp))
	}
	for i := range wp {
		if wp[i] != gp[i] {
			t.Errorf("%s: PLT[%d] %v vs %v", name, i, wp[i], gp[i])
		}
	}
	compareRecorders(t, name, 0, want.Recorder, got.Recorder)
}

// TestLayeringEquivalence pins the tentpole's non-negotiable: the
// composed transport stack (transport.Spec over layered CC / recovery /
// mux) reproduces the pre-refactor monolith bit for bit across every
// {CC} × {recovery arm} × {mux} combination. Any divergence in firing
// order, cwnd evolution or retransmit scheduling anywhere in the
// composed stack surfaces as a probe-trace mismatch here.
func TestLayeringEquivalence(t *testing.T) {
	for _, opts := range layeringCombos() {
		opts := opts
		t.Run(comboName(opts), func(t *testing.T) {
			t.Parallel()
			assertRunsIdentical(t, comboName(opts), runMonolith(opts), Run(opts))
		})
	}
}

// runMonolithWith mirrors runWith for the monolith reference.
func runMonolithWith(s sim.Scheduler, opts Options) *Result {
	prev := sim.SetDefaultScheduler(s)
	defer sim.SetDefaultScheduler(prev)
	return runMonolith(opts)
}

// TestLayeringEquivalenceBothSchedulers replays the heaviest combo —
// all three recovery arms on, both CC variants, SPDY mux — under the
// heap and the wheel schedulers: the composed stack must match the
// monolith under each scheduler, and (transitively with the scheduler
// differential) under both at once.
func TestLayeringEquivalenceBothSchedulers(t *testing.T) {
	for _, cc := range []string{"cubic", "reno"} {
		opts := Options{
			Mode:        browser.ModeSPDY,
			Network:     Net3G,
			Sites:       webpage.Table1()[:2],
			Seed:        11,
			ThinkTime:   5 * time.Second,
			CC:          cc,
			TLP:         true,
			RACK:        true,
			FRTO:        true,
			ProbeStride: 1,
		}
		for _, sched := range []struct {
			name string
			s    sim.Scheduler
		}{{"heap", sim.SchedulerHeap}, {"wheel", sim.SchedulerWheel}} {
			name := cc + "/" + sched.name
			t.Run(name, func(t *testing.T) {
				assertRunsIdentical(t, name,
					runMonolithWith(sched.s, opts), runWith(sched.s, opts))
			})
		}
	}
}
