// Package proxy implements the cloud-hosted intermediaries of the paper's
// test setup (Figure 2): an HTTP proxy with persistent connections
// (Squid-like) and a SPDY proxy multiplexing all traffic onto one
// prioritized session (Chromium flip-server-like) — the Session of
// mux.go, which the h2 and QUIC arms also run on. All share one origin
// fetch model, so protocol comparisons isolate the client↔proxy leg —
// the same reason the authors ran both proxies on the same VM.
package proxy

import (
	"time"

	"spdier/internal/sim"
	"spdier/internal/tcpsim"
	"spdier/internal/trace"
	"spdier/internal/webpage"
)

// OriginConfig parameterizes the proxy↔origin leg. Figure 8 measured an
// average 14 ms (max 46 ms) to first byte and ~4 ms download, showing
// this leg is never the bottleneck; the defaults reproduce those
// distributions.
type OriginConfig struct {
	// WaitMedian is the median request-to-first-byte latency for the
	// fast (CDN-served) majority of objects.
	WaitMedian time.Duration
	// WaitSigma is the log-normal shape of the wait distribution.
	WaitSigma float64
	// WaitMax truncates the fast wait (the paper observed a 46 ms max
	// on its sampled site).
	WaitMax time.Duration
	// SlowFraction of objects take a dynamic-generation/third-party
	// wait instead (SlowMedian/SlowSigma/SlowMax). Real pages mix
	// CDN-fast assets with slow ad and analytics endpoints; overlapping
	// these waits is a core SPDY-via-proxy advantage.
	SlowFraction float64
	SlowMedian   time.Duration
	SlowSigma    float64
	SlowMax      time.Duration
	// BandwidthBPS is the effective origin→proxy download rate.
	BandwidthBPS int64
	// DownloadFloor is a fixed per-object transfer cost.
	DownloadFloor time.Duration
}

// DefaultOriginConfig returns a mixture: ~80% of objects come back with
// the Figure 8 fast profile (median 12 ms, max 46 ms); the rest carry a
// realistic dynamic-content tail.
func DefaultOriginConfig() OriginConfig {
	return OriginConfig{
		WaitMedian:    12 * time.Millisecond,
		WaitSigma:     0.4,
		WaitMax:       46 * time.Millisecond,
		SlowFraction:  0.2,
		SlowMedian:    220 * time.Millisecond,
		SlowSigma:     0.5,
		SlowMax:       2 * time.Second,
		BandwidthBPS:  400_000_000,
		DownloadFloor: 2 * time.Millisecond,
	}
}

// FastOriginConfig is the pure Figure 8 profile (the paper's dedicated
// test server), used by the experiments that reproduce that figure.
func FastOriginConfig() OriginConfig {
	cfg := DefaultOriginConfig()
	cfg.SlowFraction = 0
	return cfg
}

// Origin models fetching objects from web servers over the proxy's fat,
// low-latency cloud uplink: a distribution of waits and downloads drawn
// from its own RNG stream, one draw per request in arrival order.
type Origin struct {
	cfg OriginConfig
	rng *sim.RNG
}

// NewOrigin creates an origin fetch model.
func NewOrigin(cfg OriginConfig, rng *sim.RNG) *Origin {
	return &Origin{cfg: cfg, rng: rng}
}

// Timing draws one fetch of obj: wait is request to first byte, download
// first byte to the full body at the proxy.
func (o *Origin) Timing(obj *webpage.Object) (wait, download time.Duration) {
	if o.cfg.SlowFraction > 0 && o.rng.Bool(o.cfg.SlowFraction) {
		wait = time.Duration(o.rng.LogNorm(float64(o.cfg.SlowMedian), o.cfg.SlowSigma))
		if wait > o.cfg.SlowMax {
			wait = o.cfg.SlowMax
		}
	} else {
		wait = time.Duration(o.rng.LogNorm(float64(o.cfg.WaitMedian), o.cfg.WaitSigma))
		if wait > o.cfg.WaitMax {
			wait = o.cfg.WaitMax
		}
	}
	if wait < time.Millisecond {
		wait = time.Millisecond
	}
	download = o.cfg.DownloadFloor
	if o.cfg.BandwidthBPS > 0 {
		download += time.Duration(float64(obj.Size*8) / float64(o.cfg.BandwidthBPS) * float64(time.Second))
	}
	return wait, download
}

// Proxy aggregates the shared origin model and the per-object proxy-side
// records for Figure 8.
type Proxy struct {
	Loop    *sim.Loop
	Origin  *Origin
	Records []*trace.ProxyRecord
	// slab is where the log's entries are carved: a page's reserved
	// together by ExpectPage, a request nobody announced its own.
	slab tcpsim.Slab[trace.ProxyRecord]
}

// recordChunk caps the record slab's chunks past a run's reservation: a
// record is 48 bytes and holds a pointer, so 170 are 8,160, 8,168 with
// the allocator's header, in the 8,192-byte class (TestLooseRecordChunk).
const recordChunk = 170

// New creates a proxy host with the given origin model.
func New(loop *sim.Loop, origin *Origin) *Proxy {
	return &Proxy{Loop: loop, Origin: origin, slab: tcpsim.NewSlab[trace.ProxyRecord](recordChunk)}
}

// ExpectRun sizes the log for a run of at most requests requests: their
// entries come from one chunk, and Records holds them without growing.
func (p *Proxy) ExpectRun(requests int) {
	p.slab.Reserve(requests)
	p.Records = make([]*trace.ProxyRecord, 0, requests)
}

// ExpectPage reserves log entries for a page of n objects about to be
// requested, carved together: the page's exchanges are logged in them
// (Exchange.LogTo), whatever else arrives in between.
func (p *Proxy) ExpectPage(n int) []trace.ProxyRecord { return p.slab.Take(n) }

// record logs a request for obj arriving now in r, the entry reserved
// for it, and returns it. A request nobody announced (a beacon, a
// test's) has none, and gets one from the slab.
func (p *Proxy) record(obj *webpage.Object, r *trace.ProxyRecord) *trace.ProxyRecord {
	if r == nil {
		r = p.slab.New()
	}
	r.Obj, r.ReqArrived = obj, p.Loop.Now()
	p.Records = append(p.Records, r)
	return r
}
