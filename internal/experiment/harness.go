// Package experiment defines one registered experiment per table and
// figure of the paper, plus the harness that runs a full field-test
// session inside the simulator: 20 sites visited in a fixed random
// order, 60 seconds apart, over a chosen access network and protocol,
// with tcp_probe-style instrumentation — the in-silico equivalent of one
// of the authors' overnight measurement runs.
package experiment

import (
	"slices"
	"time"

	"spdier/internal/browser"
	"spdier/internal/netem"
	"spdier/internal/proxy"
	"spdier/internal/rrc"
	"spdier/internal/sim"
	"spdier/internal/stats"
	"spdier/internal/tcpsim"
	"spdier/internal/trace"
	"spdier/internal/transport"
	"spdier/internal/webpage"
)

// NetworkKind selects the access network under test.
type NetworkKind string

// Access networks.
const (
	Net3G   NetworkKind = "3g"
	NetLTE  NetworkKind = "lte"
	NetWiFi NetworkKind = "wifi"
)

// visitOrderSeed fixes the random site visit order, which the paper
// generated once and reused across all experiments.
const visitOrderSeed = 20131209 // CoNEXT'13 opening day

// Options configures one simulated measurement run.
type Options struct {
	Network NetworkKind
	Mode    browser.Mode
	Seed    uint64

	// Sites defaults to the Table 1 catalog.
	Sites []webpage.SiteSpec
	// Pages overrides generated pages entirely (test pages of §5.2).
	Pages []*webpage.Page

	// ThinkTime spaces page requests (60 s in the paper).
	ThinkTime time.Duration

	// PingKeepalive keeps the radio in DCH with a background ping
	// (Figure 14).
	PingKeepalive bool
	// PingInterval and PingBytes shape the keep-alive traffic. The
	// payload must exceed the FACH queue threshold so the device rides
	// DCH rather than idling down to the shared channel.
	PingInterval time.Duration
	PingBytes    int

	// SlowStartAfterIdleOff disables Linux cwnd validation (Figure 15).
	SlowStartAfterIdleOff bool
	// ResetRTTAfterIdle enables the paper's §6.2.1 fix.
	ResetRTTAfterIdle bool
	// CC selects "cubic" (default) or "reno" (Table 2).
	CC string
	// NoMetricsCache disables the destination cache (§6.2.4).
	NoMetricsCache bool
	// SPDYSessions stripes SPDY over N connections (§6.1).
	SPDYSessions int
	// SPDYLateBinding uses the §6.2 late-binding remedy when striping.
	SPDYLateBinding bool
	// Pipelining enables HTTP/1.1 pipelining (extension experiment).
	Pipelining bool
	// NoBeacons disables post-load periodic transfers.
	NoBeacons bool
	// FastOrigin uses the pure Figure 8 origin profile (the authors'
	// dedicated test server) instead of the default real-web mixture.
	FastOrigin bool
	// DisableUndo models a TCP stack without effective DSACK undo
	// (ablation for the §6.2.1 fix).
	DisableUndo bool

	// TLP, RACK and FRTO toggle the modern loss-recovery fix arms on
	// every proxy-side connection (see internal/tcpsim/recovery.go).
	// All off reproduces the paper-era stack bit for bit.
	TLP  bool
	RACK bool
	FRTO bool

	// H2EqualFraming makes the h2 mode price frames exactly as SPDY does
	// with never-binding windows — the differential-oracle configuration
	// under which h2 and SPDY runs are bit-identical. No-op outside h2.
	H2EqualFraming bool
	// QUICNo0RTT disables QUIC 0-RTT resumption (ablation of the §6.2.4
	// "cache more aggressively" answer). No-op outside quic.
	QUICNo0RTT bool

	// Impair applies seeded wire impairments (Gilbert-Elliott bursty
	// loss, reordering, duplication, extra jitter) to both directions of
	// the access path. The zero value is inert and leaves the simulation
	// bit-identical to an unimpaired run.
	Impair netem.Impairments
	// ExtraLatency adds one-way propagation delay to both directions of
	// the access path (the metamorphic latency oracle's knob).
	ExtraLatency time.Duration
	// PromotionScale multiplies every RRC promotion delay; 0 or 1 leaves
	// the profile untouched. No-op on WiFi (no radio).
	PromotionScale float64
	// NoLinkLoss zeroes the access profile's residual random loss, for
	// oracles of the form "zero loss implies zero retransmissions".
	NoLinkLoss bool

	// SampleEvery sets the telemetry sampling period (default 500 ms).
	SampleEvery time.Duration

	// ProbeStride downsamples bulk (ack/send) tcp_probe samples: every
	// stride-th one is retained. 0 selects defaultProbeStride; 1 retains
	// everything. Rare events and all aggregate statistics are
	// unaffected — see tcpsim.Recorder.
	ProbeStride int

	// LeanProbe retains only rare tcp_probe events (no bulk ack/send
	// samples at all). The simulation itself is unchanged — aggregate
	// counters, retransmission ledgers and burst analysis stay exact —
	// but figure-style cwnd/trace walks see no bulk samples. The
	// streaming sweep path sets this so aggregate-only runs never
	// materialize the columnar trace.
	LeanProbe bool
}

// defaultProbeStride is the bulk-sample downsampling applied when
// Options.ProbeStride is zero. Stride 4 keeps figure traces dense while
// shrinking a cached full-sweep recorder by roughly another 3× on top of
// the columnar layout.
const defaultProbeStride = 4

func (o Options) withDefaults() Options {
	if o.Mode == "" {
		o.Mode = browser.ModeHTTP
	}
	if o.Network == "" {
		o.Network = Net3G
	}
	if len(o.Sites) == 0 && len(o.Pages) == 0 {
		o.Sites = webpage.Table1()
	}
	if o.ThinkTime == 0 {
		o.ThinkTime = 60 * time.Second
	}
	if o.PingInterval == 0 {
		o.PingInterval = 2 * time.Second
	}
	if o.PingBytes == 0 {
		o.PingBytes = 600
	}
	if o.CC == "" {
		o.CC = "cubic"
	}
	if o.SPDYSessions == 0 {
		o.SPDYSessions = 1
	}
	if o.SampleEvery == 0 {
		o.SampleEvery = 500 * time.Millisecond
	}
	if o.ProbeStride == 0 {
		o.ProbeStride = defaultProbeStride
	}
	// Canonical forms, so CacheKey sees one value per simulation: a 0
	// scale runs as 1, and disabled impairments' knobs draw nothing.
	if o.PromotionScale == 0 {
		o.PromotionScale = 1
	}
	if !o.Impair.Enabled() {
		o.Impair = netem.Impairments{}
	}
	return o
}

// Sample is one telemetry observation.
type Sample struct {
	At            sim.Time
	InFlightBytes int   // sum over proxy-side connections (Fig. 10)
	DownlinkBytes int64 // cumulative proxy→device wire bytes (Fig. 9)
	ActiveConns   int
}

// Result is everything one run produces.
type Result struct {
	Opts       Options
	VisitOrder []int               // indices into Pages
	Pages      []*webpage.Page     // in visit order
	Records    []*trace.PageRecord // in visit order
	Recorder   *tcpsim.Recorder
	Proxy      *proxy.Proxy
	Net        *tcpsim.Network
	Radio      *rrc.Machine // nil for WiFi
	Samples    []Sample
	RadioMJ    float64 // radio energy, millijoules
	Duration   sim.Time
	// Fired is the total number of events the run's loop executed, taken
	// before the loop is released: a field of every session row of the
	// run pins (testdata/pins.json), so a moved timer moves a row.
	Fired uint64
	// Incomplete counts pages whose load callback never fired before the
	// hard deadline; their Records entries are nil and every accessor
	// skips them.
	Incomplete int
}

// PLTSeconds returns page load times in seconds, in visit order.
// Incomplete pages (nil records) are skipped.
func (r *Result) PLTSeconds() []float64 {
	out := make([]float64, 0, len(r.Records))
	for _, rec := range r.Records {
		if rec == nil {
			continue
		}
		out = append(out, rec.PLT().Seconds())
	}
	return out
}

// PLTBySite maps Table 1 site index (1-based) to PLT seconds.
// Incomplete pages (nil records) are skipped.
func (r *Result) PLTBySite() map[int]float64 {
	out := make(map[int]float64)
	for i, rec := range r.Records {
		if rec == nil {
			continue
		}
		site := r.VisitOrder[i] + 1
		out[site] = rec.PLT().Seconds()
	}
	return out
}

// Retransmissions totals RTO retransmissions plus fast retransmits
// across all proxy-side connections.
func (r *Result) Retransmissions() int {
	if r.Recorder == nil {
		return 0
	}
	return r.Recorder.Retransmissions()
}

// ThroughputSeries bins downlink bytes per second from the samples.
func (r *Result) ThroughputSeries() *stats.BinSeries {
	s := stats.NewBinSeries(1.0)
	var prev int64
	for _, smp := range r.Samples {
		s.Add(smp.At.Seconds(), float64(smp.DownlinkBytes-prev))
		prev = smp.DownlinkBytes
	}
	return s
}

// inFlightMeter sums InFlightBytes over the browser's proxy-side TCP
// endpoints, a list that only grows — some 1,400 entries by the end of
// an HTTP session, at most 32 of them open. It visits each endpoint
// until it has been closed and has drained, after which its
// contribution is zero for good, so a sample costs the connections
// still open rather than every connection the session ever made.
type inFlightMeter struct {
	seen int            // conns[:seen] have been taken into live
	live []*tcpsim.Conn // endpoints that may still hold unacknowledged bytes
}

// sum returns the total over conns, which must be the same append-only
// list on every call.
func (m *inFlightMeter) sum(conns []*tcpsim.Conn) int {
	m.live = append(m.live, conns[m.seen:]...)
	m.seen = len(conns)
	total := 0
	keep := m.live[:0]
	for _, c := range m.live {
		total += c.InFlightBytes()
		if !c.Drained() {
			keep = append(keep, c)
		}
	}
	m.live = keep
	return total
}

// buildNetwork assembles the radio, path and TCP demux for the run,
// applying the Options' path modifiers (impairments, extra latency,
// scaled promotion delays, zeroed residual loss).
func buildNetwork(loop *sim.Loop, o Options, rng *sim.RNG) (*tcpsim.Network, *rrc.Machine) {
	var radio *rrc.Machine
	var pc netem.PathConfig
	var rp rrc.Profile
	hasRadio := false
	switch o.Network {
	case Net3G:
		rp, hasRadio = rrc.Profile3G(), true
		pc = netem.Profile3G()
	case NetLTE:
		rp, hasRadio = rrc.ProfileLTE(), true
		pc = netem.ProfileLTE()
	case NetWiFi:
		pc = netem.ProfileWiFi()
	default:
		panic("experiment: unknown network " + string(o.Network))
	}
	if hasRadio {
		if s := o.PromotionScale; s > 0 && s != 1 {
			scaled := make(map[rrc.State]time.Duration, len(rp.PromotionDelay))
			for st, d := range rp.PromotionDelay {
				scaled[st] = time.Duration(float64(d) * s)
			}
			rp.PromotionDelay = scaled
		}
		radio = rrc.NewMachine(loop, rp)
	}
	pc.Up.Delay += o.ExtraLatency
	pc.Down.Delay += o.ExtraLatency
	if o.NoLinkLoss {
		pc.Up.LossRate, pc.Down.LossRate = 0, 0
	}
	pc = pc.WithImpairments(o.Impair)
	path := netem.NewPath(loop, pc, rng.Fork(0xBEEF), radio)
	return tcpsim.NewNetwork(loop, path), radio
}

// GeneratePages builds the run's page set: deterministic for a given
// seed, identical across protocol modes so comparisons are paired.
func GeneratePages(sites []webpage.SiteSpec, seed uint64) []*webpage.Page {
	pages := make([]*webpage.Page, len(sites))
	base := sim.NewRNG(seed)
	for i, spec := range sites {
		pages[i] = webpage.Generate(spec, base.Fork(uint64(spec.Index)))
	}
	return pages
}

// VisitOrder returns the fixed pseudo-random visit order for n pages.
func VisitOrder(n int) []int {
	return sim.NewRNG(visitOrderSeed).Perm(n)
}

// Run executes one full measurement session and returns its Result; run
// also takes its loop's storage and its SPDY zlib contexts from a, when
// non-nil, and gives them back at the end, and hands tap, when non-nil,
// the run's network before the first event.
func Run(opts Options) *Result { return run(opts, nil, nil) }
func run(opts Options, a *runArena, tap func(*tcpsim.Network)) *Result {
	opts = opts.withDefaults()
	loop, shelf := a.lend()
	rng := sim.NewRNG(opts.Seed)
	net, radio := buildNetwork(loop, opts, rng)
	if tap != nil {
		tap(net)
	}

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
	// The proxy-side stack is one transport.Spec; Apply sets the Config
	// fields the direct assignments it replaced did (pinned by transport's
	// equivalence test and the layering tests here), so goldens cannot move.
	spec := transport.Spec{
		Kind:               transport.Kind(opts.Mode),
		CC:                 opts.CC,
		Recovery:           tcpsim.RecoveryPolicy{TLP: opts.TLP, RACK: opts.RACK, FRTO: opts.FRTO},
		SlowStartAfterIdle: !opts.SlowStartAfterIdleOff,
		ResetRTTAfterIdle:  opts.ResetRTTAfterIdle,
		DisableUndo:        opts.DisableUndo,
		Probe:              rec,
	}
	if !opts.NoMetricsCache {
		spec.Metrics = tcpsim.NewMetricsCache()
	}
	bcfg.ProxyTCP = spec.Apply(bcfg.ProxyTCP)
	if opts.Mode == browser.ModeQUIC {
		// 0-RTT is the client's resumption decision: it needs the shared
		// metrics cache (QUIC's session-ticket analogue) on its own side.
		bcfg.QUICZeroRTT = !opts.QUICNo0RTT
		bcfg.ClientTCP.Metrics = spec.Metrics
	}
	bcfg.H2EqualFraming = opts.H2EqualFraming
	bcfg.SPDYSessions = opts.SPDYSessions
	bcfg.SPDYLateBinding = opts.SPDYLateBinding
	bcfg.Pipelining = opts.Pipelining
	bcfg.PipelineDepth = 4
	bcfg.Beacons = !opts.NoBeacons
	bcfg.Shelf = shelf
	br := browser.New(loop, net, prox, bcfg, rng.Fork(0xB0B))

	// Pages and visit order.
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

	// Schedule page visits opts.ThinkTime apart.
	records := make([]*trace.PageRecord, len(order))
	for i, pi := range order {
		i, pi := i, pi
		page := pages[pi]
		res.Pages = append(res.Pages, page)
		loop.At(sim.Time(i)*sim.Time(opts.ThinkTime), func() {
			br.LoadPage(page, func(pr *trace.PageRecord) { records[i] = pr })
		})
	}

	// Keep-alive pinger (Figure 14).
	if opts.PingKeepalive {
		var ping func()
		ping = func() {
			net.Path().AtoB.Send("ping", opts.PingBytes)
			loop.After(opts.PingInterval, ping)
		}
		loop.After(opts.PingInterval, ping)
	}

	// Telemetry sampling: every SampleEvery from SampleEvery until the
	// first sample at or past end, so at most end/SampleEvery + 1 of them.
	end := sim.Time(len(order))*sim.Time(opts.ThinkTime) + sim.Time(opts.ThinkTime)
	if opts.SampleEvery > 0 {
		res.Samples = make([]Sample, 0, int(end/sim.Time(opts.SampleEvery))+1)
	}
	var tcpInFlight inFlightMeter
	var sampler func()
	sampler = func() {
		inflight := tcpInFlight.sum(br.ProxyConns())
		for _, c := range br.ProxyQUICConns() {
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

	// With a short ThinkTime the nominal end can arrive before the last
	// pages finish, leaving nil records. Every load is guaranteed a
	// callback by the browser's page watchdog, so keep the loop running
	// until all callbacks have fired, capped at the instant the last
	// possible watchdog fires.
	if slices.Contains(records, nil) {
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
	// A memoized Result must retain data, not the run's machinery: drop
	// the event queue's callbacks, the segment pool and per-connection
	// runtime state so the browser/proxy/compression graph of the run is
	// collectable while the Result sits in the cache, and take back what
	// the arena lent, so the Result reaches none of it.
	net.ReleaseRuntime()
	a.reclaim(loop)
	return res
}
