package main

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"spdier/internal/browser"
	"spdier/internal/experiment"
	"spdier/internal/h2"
	"spdier/internal/netem"
	"spdier/internal/proxy"
	"spdier/internal/rrc"
	"spdier/internal/sim"
	"spdier/internal/spdy"
	"spdier/internal/tcpsim"
	"spdier/internal/transport"
	"spdier/internal/webpage"
)

// The replay measures each unit cost replayReps times and keeps the
// median, because one repetition of a layer lasts only milliseconds and
// the first is cold.
const replayReps = 5

// userAgent is the string every protocol mode's browser sends.
const userAgent = "Mozilla/5.0 (Windows NT 6.1) Chrome/23.0"

// ledger is the per-layer cost account of the traced runs. What each
// layer did is counted from the finished Results; what a unit of that
// work costs is measured by replaying as much of it through the layer's
// public calls alone. A layer's share is count × unit cost ÷ the time
// the runs spent in experiment.Run, and whatever no replayed layer
// claims is the residual: browser, proxy and the harness wiring.
type ledger struct {
	order []string // condition labels in first-seen order
	conds map[string]*condLedger
}

func newLedger() *ledger { return &ledger{conds: map[string]*condLedger{}} }

// condLedger holds one condition's counts, summed over its traced runs.
type condLedger struct {
	// opts is the first traced run's Result.Opts: the condition's options
	// with the harness's defaults filled in.
	opts  experiment.Options
	runs  int
	pages int
	runNS float64 // Σ experiment.Run wall time

	fired      uint64
	up, down   netem.LinkStats
	conns      int // connection pairs, TCP and QUIC
	promotions int
	energyMJ   float64
	retx       int
	spurious   int
	requests   int
	queueDelay time.Duration
	pltSum     float64
	objects    int

	// first is the first traced run's page set: the objects the sizers
	// and the tcpsim replay work over.
	first []*webpage.Page

	unit unitCosts
}

func addStats(a *netem.LinkStats, b netem.LinkStats) {
	a.Sent += b.Sent
	a.Delivered += b.Delivered
	a.DroppedQueue += b.DroppedQueue
	a.DroppedLoss += b.DroppedLoss
	a.DroppedBurst += b.DroppedBurst
	a.DroppedFilter += b.DroppedFilter
	a.Bytes += b.Bytes
}

func drops(s netem.LinkStats) int {
	return s.DroppedQueue + s.DroppedLoss + s.DroppedBurst + s.DroppedFilter
}

// observe adds one finished run's counts.
func (l *ledger) observe(c condition, res *experiment.Result, rs *experiment.RunStats, pages []*webpage.Page, runTime time.Duration) {
	cl := l.conds[c.label]
	if cl == nil {
		cl = &condLedger{opts: res.Opts, first: pages}
		l.conds[c.label] = cl
		l.order = append(l.order, c.label)
	}
	cl.runs++
	cl.pages += len(rs.PLTs)
	cl.runNS += float64(runTime)
	cl.fired += res.Fired
	addStats(&cl.up, res.Net.Path().AtoB.Stats())
	addStats(&cl.down, res.Net.Path().BtoA.Stats())
	cl.conns += (len(res.Net.Conns()) + len(res.Net.QUICConns())) / 2
	if res.Radio != nil {
		cl.promotions += res.Radio.Promotions()
	}
	cl.energyMJ += rs.RadioMJ
	cl.retx += rs.Retx
	cl.spurious += rs.Spurious
	cl.requests += len(res.Proxy.Records)
	for _, pr := range res.Proxy.Records {
		cl.queueDelay += pr.QueueDelay()
	}
	for _, p := range rs.PLTs {
		cl.pltSum += p
	}
	for _, p := range pages {
		cl.objects += len(p.Objects)
	}
}

// unitCosts are the replay's measurements for one condition.
type unitCosts struct {
	simNS       float64 // per event
	netemNS     float64 // per packet, net of its events
	setupUS     float64 // per connection, to established
	setupAllocs float64
	segNS       float64 // per downlink segment, net of netem and sim
	segAllocs   float64
	sizerNS     map[string]float64 // per call, by sizer layer
	sizerAllocs map[string]float64
}

// sizerOf names the header sizer an arm's proxied requests go through.
func sizerOf(mode browser.Mode) string {
	switch mode {
	case browser.ModeSPDY:
		return "spdy"
	case browser.ModeH2, browser.ModeQUIC:
		return "h2"
	}
	return "httpwire"
}

var sizerLayers = []string{"httpwire", "spdy", "h2"}

// medianOf is the median of replayReps repetitions of fn, which returns
// its own cost.
func medianOf(fn func() float64) float64 {
	xs := make([]float64, replayReps)
	for i := range xs {
		xs[i] = fn()
	}
	sort.Float64s(xs)
	return xs[len(xs)/2]
}

// mallocsDuring counts heap objects allocated while fn runs.
func mallocsDuring(fn func()) float64 {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	fn()
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs - a.Mallocs)
}

// replay prices every condition's counts. Its spans nest under one
// "replay" span per condition.
func (l *ledger) replay(tr *tracer, seed uint64) {
	for _, label := range l.order {
		cl := l.conds[label]
		root := tr.begin("replay")
		cl.unit = cl.replay(tr, seed)
		tr.end(root)
	}
}

func (cl *condLedger) replay(tr *tracer, seed uint64) unitCosts {
	u := unitCosts{sizerNS: map[string]float64{}, sizerAllocs: map[string]float64{}}
	perRun := func(n int) int { return (n + cl.runs/2) / cl.runs }
	network := cl.opts.Network

	// sim: as many events as a run fired, through After and Run alone.
	events := perRun(int(cl.fired))
	id := tr.begin("sim")
	u.simNS = medianOf(func() float64 { return float64(replaySim(events)) / float64(events) })
	tr.end(id)

	// netem: a run's packets through Link.Send to the receiver, over the
	// workload's profile and radio, minus what its events cost in sim.
	up, down := perRun(cl.up.Sent), perRun(cl.down.Sent)
	upSize, downSize := meanSize(cl.up), meanSize(cl.down)
	id = tr.begin("netem")
	u.netemNS = medianOf(func() float64 {
		elapsed, fired := replayNetem(network, seed, up, down, upSize, downSize)
		return (float64(elapsed) - float64(fired)*u.simNS) / float64(up+down)
	})
	tr.end(id)

	// tcpsim: connection set-up alone, then a run's downlink bytes over
	// as many connections with no browser or proxy above them.
	const setups = 100
	id = tr.begin("tcpsim")
	var setupAllocs float64
	u.setupUS = medianOf(func() float64 {
		var elapsed time.Duration
		setupAllocs = mallocsDuring(func() { elapsed = replaySetup(cl.opts, seed, setups) })
		return float64(elapsed) / 1e3 / setups
	})
	u.setupAllocs = setupAllocs / setups
	var segAllocs float64
	u.segNS = medianOf(func() float64 {
		var x transferReplay
		segAllocs = mallocsDuring(func() { x = replayTransfer(cl.opts, seed, cl.first, perRun(cl.conns)) })
		segAllocs /= float64(x.segments)
		net := float64(x.elapsed) - float64(x.packets)*u.netemNS - float64(x.fired)*u.simNS
		return net / float64(x.segments)
	})
	u.segAllocs = segAllocs
	tr.end(id)

	// Header sizers: two calls per proxied request, over the run's own
	// objects, each with the fresh compression context a session has.
	var objs []*webpage.Object
	for _, p := range cl.first {
		objs = append(objs, p.Objects...)
	}
	for _, name := range sizerLayers {
		id = tr.begin(name)
		var allocs float64
		u.sizerNS[name] = medianOf(func() float64 {
			var elapsed time.Duration
			allocs = mallocsDuring(func() { elapsed = replaySizer(name, objs) })
			return float64(elapsed) / float64(2*len(objs))
		})
		u.sizerAllocs[name] = allocs / float64(2*len(objs))
		tr.end(id)
	}
	return u
}

func meanSize(s netem.LinkStats) int {
	if s.Delivered == 0 {
		return 0
	}
	return int(s.Bytes / int64(s.Delivered))
}

// sinkInt keeps the sizers' results alive so the calls are not removed.
var sinkInt int

func replaySim(events int) time.Duration {
	loop := sim.NewLoop()
	fn := func() {}
	t0 := time.Now()
	for i := 0; i < events; i++ {
		loop.After(time.Duration(1+i%251)*time.Millisecond, fn)
		if i&1023 == 1023 {
			loop.RunUntilIdle()
		}
	}
	loop.RunUntilIdle()
	return time.Since(t0)
}

// newPath mirrors the harness's network: the profile and, on a cellular
// network, the radio that gates it.
func newPath(loop *sim.Loop, network experiment.NetworkKind, seed uint64) *netem.Path {
	rng := sim.NewRNG(seed)
	switch network {
	case experiment.Net3G:
		return netem.NewPath(loop, netem.Profile3G(), rng, rrc.NewMachine(loop, rrc.Profile3G()))
	case experiment.NetLTE:
		return netem.NewPath(loop, netem.ProfileLTE(), rng, rrc.NewMachine(loop, rrc.ProfileLTE()))
	}
	return netem.NewPath(loop, netem.ProfileWiFi(), rng, nil)
}

// replayNetem sends down downlink and up uplink packets in bursts paced
// at the downlink's rate, so the drop-tail queue never fills.
func replayNetem(network experiment.NetworkKind, seed uint64, up, down, upSize, downSize int) (time.Duration, uint64) {
	loop := sim.NewLoop()
	path := newPath(loop, network, seed)
	recv := func(netem.Payload) { sinkInt++ }
	path.AtoB.SetReceiver(recv)
	path.BtoA.SetReceiver(recv)
	const burst = 16
	gap := time.Duration(float64(burst*downSize*8) / float64(path.BtoA.Config().BandwidthBPS) * float64(time.Second))
	t0 := time.Now()
	upDebt := 0
	for sent := 0; sent < down; {
		for i := 0; i < burst && sent < down; i++ {
			path.BtoA.Send(nil, downSize)
			sent++
			for upDebt += up; upDebt >= down; upDebt -= down {
				path.AtoB.Send(nil, upSize)
			}
		}
		loop.Run(loop.Now().Add(gap))
	}
	loop.RunUntilIdle()
	return time.Since(t0), loop.Fired()
}

// stackConfigs composes the two endpoints' transport configuration from
// a finished run's Result.Opts, field for field as experiment.Run does
// from the same options. The harness exports no helper for this and a
// Conn does not give its Config back, so the Spec is spelled out here;
// every value in it comes from the run, none from this file.
func stackConfigs(opts experiment.Options) (client, server tcpsim.Config) {
	bcfg := browser.DefaultConfig(opts.Mode)
	spec := transport.Spec{
		Kind:               transport.Kind(opts.Mode),
		CC:                 opts.CC,
		Recovery:           tcpsim.RecoveryPolicy{TLP: opts.TLP, RACK: opts.RACK, FRTO: opts.FRTO},
		SlowStartAfterIdle: !opts.SlowStartAfterIdleOff,
		ResetRTTAfterIdle:  opts.ResetRTTAfterIdle,
		DisableUndo:        opts.DisableUndo,
		Probe:              tcpsim.NewRecorderRareOnly(),
	}
	if !opts.NoMetricsCache {
		spec.Metrics = tcpsim.NewMetricsCache()
	}
	client, server = bcfg.ClientTCP, spec.Apply(bcfg.ProxyTCP)
	if opts.Mode == browser.ModeQUIC {
		client.Metrics = spec.Metrics
		client.ZeroRTT = !opts.QUICNo0RTT
	}
	return client, server
}

// connPair is one client/server connection of either transport.
type connPair struct {
	tc, ts *tcpsim.Conn
	qc, qs *tcpsim.QUICConn
}

func openPair(nw *tcpsim.Network, mode browser.Mode, ccfg, scfg tcpsim.Config, id string) *connPair {
	if mode == browser.ModeQUIC {
		qc, qs := nw.NewQUICPair(ccfg, scfg, id, "device")
		return &connPair{qc: qc, qs: qs}
	}
	tc, ts := nw.NewConnPair(ccfg, scfg, id, "device")
	return &connPair{tc: tc, ts: ts}
}

// replaySetup times n connections from NewConnPair or NewQUICPair to
// established, one after the other on a warm radio.
func replaySetup(opts experiment.Options, seed uint64, n int) time.Duration {
	loop := sim.NewLoop()
	nw := tcpsim.NewNetwork(loop, newPath(loop, opts.Network, seed))
	ccfg, scfg := stackConfigs(opts)
	ids := make([]string, n)
	for i := range ids {
		ids[i] = fmt.Sprintf("c%03d", i)
	}
	t0 := time.Now()
	for _, id := range ids {
		p := openPair(nw, opts.Mode, ccfg, scfg, id)
		if p.qc != nil {
			p.qc.OnEstablished(loop.Stop)
			p.qc.Connect()
			if !p.qc.Established() {
				loop.RunUntilIdle()
			}
			p.qc.Close() // stores the metrics the next 0-RTT resumption needs
		} else {
			p.tc.OnEstablished(loop.Stop)
			p.tc.Connect()
			loop.RunUntilIdle()
		}
	}
	elapsed := time.Since(t0)
	loop.RunUntilIdle()
	return elapsed
}

// transferReplay is what one tcpsim replay did.
type transferReplay struct {
	elapsed  time.Duration
	fired    uint64
	packets  int // both directions
	segments int // downlink
}

// requestBytes stands in for a request: the client writes it, and the
// server answers with the response bytes when it arrives.
const requestBytes = 400

// replayTransfer moves the pages' bytes from server to client over
// conns connections opened evenly across the session, page by page with
// the loop run idle in between as a think time does. A multiplexed arm
// therefore reuses its one connection, and HTTP opens fresh ones.
func replayTransfer(opts experiment.Options, seed uint64, pages []*webpage.Page, conns int) transferReplay {
	loop := sim.NewLoop()
	path := newPath(loop, opts.Network, seed)
	nw := tcpsim.NewNetwork(loop, path)
	ccfg, scfg := stackConfigs(opts)
	if conns < 1 {
		conns = 1
	}
	ids := make([]string, conns)
	for i := range ids {
		ids[i] = fmt.Sprintf("c%03d", i)
	}

	t0 := time.Now()
	var open []*connPair // the connections the current page uses
	opened := 0
	for pi, page := range pages {
		target := (pi + 1) * conns / len(pages)
		if target < 1 {
			target = 1
		}
		if target > opened {
			for _, p := range open {
				if p.tc != nil {
					p.tc.Close()
				} else {
					p.qc.Close()
					p.qs.Close()
				}
			}
			open = open[:0]
			for ; opened < target; opened++ {
				open = append(open, openPair(nw, opts.Mode, ccfg, scfg, ids[opened]))
			}
		}
		if opts.Mode == browser.ModeQUIC {
			// One transport stream per object, all on the first connection.
			p := open[0]
			sizes := make(map[uint32]int, len(page.Objects))
			p.qs.OnStreamDeliver(func(sid uint32, _ int) {
				if n := sizes[sid]; n > 0 {
					sizes[sid] = 0
					p.qs.WriteStream(sid, n)
				}
			})
			for _, o := range page.Objects {
				sid := uint32(pi*4096+o.ID)*2 + 1
				sizes[sid] = o.Size
				p.qc.WriteStream(sid, requestBytes)
			}
		} else {
			pending := make([]int, len(open))
			for i, o := range page.Objects {
				pending[i%len(open)] += o.Size
			}
			for i, p := range open {
				i, p := i, p
				p.ts.OnDeliver(func(int) {
					if n := pending[i]; n > 0 {
						pending[i] = 0
						p.ts.Write(n)
					}
				})
				if pending[i] > 0 {
					p.tc.Write(requestBytes)
				}
			}
		}
		loop.RunUntilIdle()
	}
	r := transferReplay{elapsed: time.Since(t0), fired: loop.Fired()}
	r.segments = path.BtoA.Stats().Sent
	r.packets = r.segments + path.AtoB.Stats().Sent
	return r
}

func contentType(k webpage.Kind) string {
	switch k {
	case webpage.KindHTML:
		return "text/html; charset=utf-8"
	case webpage.KindJS:
		return "text/javascript"
	case webpage.KindCSS:
		return "text/css"
	case webpage.KindImg:
		return "image/jpeg"
	}
	return "text/plain"
}

// replaySizer prices the request and the response head of every object
// the way the named layer's arm does.
func replaySizer(layer string, objs []*webpage.Object) time.Duration {
	t0 := time.Now()
	switch layer {
	case "httpwire":
		for _, o := range objs {
			sinkInt += proxy.HTTPReqSize(o)
			sinkInt += proxy.HTTPRespHeadSize(o)
		}
	case "spdy":
		req, resp := spdy.NewSizeOracle(), spdy.NewSizeOracle()
		for i, o := range objs {
			sid := uint32(2*i + 1)
			sinkInt += req.FrameSize(spdy.SynStream{
				StreamID: sid,
				Priority: spdy.PriorityForType(string(o.Kind)),
				Fin:      true,
				Headers:  spdy.RequestHeaders("GET", "http", o.Domain, o.Path, userAgent),
			})
			sinkInt += resp.FrameSize(spdy.SynReply{
				StreamID: sid,
				Headers:  spdy.ResponseHeaders("200 OK", contentType(o.Kind), int64(o.Size)),
			})
		}
	case "h2":
		req, resp := h2.NewHeaderSizer(), h2.NewHeaderSizer()
		for _, o := range objs {
			sinkInt += req.RequestSize("GET", "http", o.Domain, o.Path, userAgent)
			sinkInt += resp.ResponseSize("200 OK", contentType(o.Kind), int64(o.Size))
		}
	}
	return time.Since(t0)
}
