// Package validate is the differential track of the test pyramid: the
// same synthetic page workload is replayed twice — once through the
// discrete-event simulator (internal/browser + internal/proxy over an
// emulated path) and once through the real SPDY/3 wire (internal/spdy
// frames between internal/liveproxy's client, proxy and origin on
// loopback sockets) — and the two executions must agree on everything
// that is time-scale independent: which objects complete in which
// order, how many bytes each carries, and that one multiplexed session
// carried them all concurrently.
//
// The live wire is asynchronous, so the workload is engineered until
// its outcome is deterministic on both tracks: each page has exactly
// one object per SPDY priority class (strict priority then fully
// decides drain order), sizes are staircased at least two flow-control
// windows apart in priority order (so a lower-priority stream can never
// sneak out before a higher one even across scheduling jitter), and the
// live proxy holds its write loop behind a barrier until every response
// body is queued (so origin-fetch goroutine races cannot leak into the
// observable order).
package validate

import (
	"bytes"
	"fmt"
	"sort"
	"time"

	"spdier/internal/browser"
	"spdier/internal/liveproxy"
	"spdier/internal/netem"
	"spdier/internal/proxy"
	"spdier/internal/sim"
	"spdier/internal/spdy"
	"spdier/internal/tcpsim"
	"spdier/internal/trace"
	"spdier/internal/webpage"
)

// Object is one resource of a differential page.
type Object struct {
	Kind webpage.Kind
	Size int
}

// Path is the request path for the object: the live origin serves
// /size/<n> with a deterministic body, and the simulator treats the
// path as an opaque label, so using the size as the name keeps the two
// tracks trivially aligned.
func (o Object) Path() string { return fmt.Sprintf("/size/%d", o.Size) }

// Page is a self-validating workload: Objects[0] is the main HTML
// document; the rest are its direct subresources, one per priority
// class, sizes strictly increasing with priority number.
type Page struct {
	Name    string
	Objects []Object
}

// host is the synthetic domain both tracks request from.
const host = "site.test"

// Pages returns the differential corpus. Every page keeps one object
// per priority class (html=0, css=1, js=2, text=3, img=4). The main
// document fits in a single 64 KiB flow-control window (it drains first
// by priority alone, never parking); consecutive subresources are
// spaced at least two windows apart, so the completion order is pinned
// to the priority order on both tracks.
func Pages() []Page {
	return []Page{
		{Name: "five-class", Objects: []Object{
			{webpage.KindHTML, 32 << 10},
			{webpage.KindCSS, 64 << 10},
			{webpage.KindJS, 192 << 10},
			{webpage.KindText, 320 << 10},
			{webpage.KindImg, 448 << 10},
		}},
		{Name: "no-css", Objects: []Object{
			{webpage.KindHTML, 16 << 10},
			{webpage.KindJS, 80 << 10},
			{webpage.KindText, 224 << 10},
			{webpage.KindImg, 368 << 10},
		}},
		{Name: "script-heavy", Objects: []Object{
			{webpage.KindHTML, 48 << 10},
			{webpage.KindCSS, 96 << 10},
			{webpage.KindJS, 240 << 10},
			{webpage.KindImg, 400 << 10},
		}},
	}
}

// Replay is what one track observed, reduced to the properties the two
// tracks can be expected to share.
type Replay struct {
	// Order lists object paths in completion order.
	Order []string
	// Bytes maps each path to the response body size the client ended up
	// with (modeled size on the sim track, received-and-verified bytes on
	// the live track).
	Bytes map[string]int
	// Sessions is the number of transport connections used.
	Sessions int
	// Overlapped reports that every subresource request was outstanding
	// before the first subresource completed — the multiplexing SPDY
	// promises, as opposed to sequential request/response.
	Overlapped bool
}

// build converts a differential page into the simulator's page model:
// the main document reveals every subresource at once with no
// processing delay, mirroring the live track issuing all requests
// up front.
func (pg Page) build() *webpage.Page {
	objs := make([]*webpage.Object, len(pg.Objects))
	for i, o := range pg.Objects {
		parent, wave := 0, 1
		if i == 0 {
			parent, wave = -1, 0
		}
		objs[i] = &webpage.Object{
			ID:     i,
			Kind:   o.Kind,
			Size:   o.Size,
			Domain: host,
			Path:   o.Path(),
			Parent: parent,
			Wave:   wave,
		}
	}
	return &webpage.Page{Name: pg.Name, Category: "validate", Objects: objs}
}

// RunSim replays the page through the simulator: SPDY mode over a clean
// WiFi-profile path (loss zeroed — the oracle is about ordering, not
// recovery) against the fast origin model.
func RunSim(pg Page, seed uint64) (*Replay, error) {
	loop := sim.NewLoop()
	rng := sim.NewRNG(seed)
	pc := netem.ProfileWiFi()
	pc.Up.LossRate, pc.Down.LossRate = 0, 0
	path := netem.NewPath(loop, pc, rng.Fork(0xBEEF), nil)
	nw := tcpsim.NewNetwork(loop, path)
	origin := proxy.NewOrigin(proxy.FastOriginConfig(), rng.Fork(0x0417))
	prox := proxy.New(loop, origin)
	cfg := browser.DefaultConfig(browser.ModeSPDY)
	cfg.Beacons = false
	br := browser.New(loop, nw, prox, cfg, rng.Fork(0xB0B))

	var rec *trace.PageRecord
	br.LoadPage(pg.build(), func(r *trace.PageRecord) { rec = r })
	loop.RunUntilIdle()
	if rec == nil {
		return nil, fmt.Errorf("validate: sim page %q never completed", pg.Name)
	}
	if rec.Aborted {
		return nil, fmt.Errorf("validate: sim page %q aborted by watchdog", pg.Name)
	}
	if len(rec.Objects) != len(pg.Objects) {
		return nil, fmt.Errorf("validate: sim page %q loaded %d objects, want %d",
			pg.Name, len(rec.Objects), len(pg.Objects))
	}

	ordered := append([]*trace.ObjectRecord(nil), rec.Objects...)
	sort.SliceStable(ordered, func(i, j int) bool { return ordered[i].Done < ordered[j].Done })
	rp := &Replay{Bytes: make(map[string]int, len(ordered))}
	conns := map[string]bool{}
	var lastSubReq, firstSubDone sim.Time
	for _, or := range ordered {
		rp.Order = append(rp.Order, or.Obj.Path)
		rp.Bytes[or.Obj.Path] = or.Obj.Size
		conns[or.ConnID] = true
		if or.Obj.Parent >= 0 {
			if or.Requested > lastSubReq {
				lastSubReq = or.Requested
			}
			if firstSubDone == 0 || or.Done < firstSubDone {
				firstSubDone = or.Done
			}
		}
	}
	rp.Sessions = len(conns)
	rp.Overlapped = lastSubReq < firstSubDone
	return rp, nil
}

// RunLive replays the page over real sockets: origin, SPDY proxy and
// client on loopback, every request issued up front on one session, the
// proxy's write barrier holding all responses until each is queued.
func RunLive(pg Page) (*Replay, error) {
	origin, err := liveproxy.StartOrigin("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defer origin.Close()
	prox, err := liveproxy.StartSPDYProxy("127.0.0.1:0", origin.Addr())
	if err != nil {
		return nil, err
	}
	defer prox.Close()
	prox.SetBarrier(len(pg.Objects))
	client, err := liveproxy.DialSPDY(prox.Addr())
	if err != nil {
		return nil, err
	}
	defer client.Close()

	type pending struct {
		path  string
		sent  time.Time
		ch    <-chan liveproxy.FetchResult
		isSub bool
	}
	reqs := make([]pending, 0, len(pg.Objects))
	for i, o := range pg.Objects {
		ch, err := client.Get(host, o.Path(), spdy.PriorityForType(string(o.Kind)))
		if err != nil {
			return nil, fmt.Errorf("validate: live get %s: %w", o.Path(), err)
		}
		reqs = append(reqs, pending{path: o.Path(), sent: time.Now(), ch: ch, isSub: i > 0})
	}
	lastSent := reqs[len(reqs)-1].sent

	type completion struct {
		path      string
		bytes     int
		seq       int
		firstByte time.Time
		isSub     bool
	}
	comps := make([]completion, 0, len(reqs))
	for i, rq := range reqs {
		var res liveproxy.FetchResult
		select {
		case res = <-rq.ch:
		case <-time.After(30 * time.Second):
			return nil, fmt.Errorf("validate: live fetch %s timed out", rq.path)
		}
		if res.Err != nil {
			return nil, fmt.Errorf("validate: live fetch %s: %w", rq.path, res.Err)
		}
		if !bytes.Equal(res.Body, liveproxy.Body(pg.Objects[i].Size)) {
			return nil, fmt.Errorf("validate: live fetch %s: body corrupt (%d bytes)",
				rq.path, len(res.Body))
		}
		comps = append(comps, completion{
			path:      rq.path,
			bytes:     len(res.Body),
			seq:       res.Seq,
			firstByte: rq.sent.Add(res.FirstByte),
			isSub:     rq.isSub,
		})
	}

	// The client read loop stamps each stream with its session-wide
	// completion sequence in frame order, so sorting by Seq recovers the
	// exact wire-level completion order — no clock comparison involved.
	sort.Slice(comps, func(i, j int) bool { return comps[i].seq < comps[j].seq })
	rp := &Replay{Bytes: make(map[string]int, len(comps))}
	var earliestFirstByte time.Time
	for _, c := range comps {
		rp.Order = append(rp.Order, c.path)
		rp.Bytes[c.path] = c.bytes
		if earliestFirstByte.IsZero() || c.firstByte.Before(earliestFirstByte) {
			earliestFirstByte = c.firstByte
		}
	}
	sessions, streams := prox.Stats()
	rp.Sessions = sessions
	if streams != len(pg.Objects) {
		return nil, fmt.Errorf("validate: proxy served %d streams, want %d", streams, len(pg.Objects))
	}
	// Stronger than "outstanding before the first completion": behind the
	// write barrier, not even the first response byte may precede the
	// last request.
	rp.Overlapped = lastSent.Before(earliestFirstByte)
	return rp, nil
}

// Compare checks that the two replays agree on ordering, byte counts
// and multiplexing. It returns nil when the tracks agree.
func Compare(simR, liveR *Replay) error {
	if len(simR.Order) != len(liveR.Order) {
		return fmt.Errorf("object counts differ: sim %d, live %d", len(simR.Order), len(liveR.Order))
	}
	for i := range simR.Order {
		if simR.Order[i] != liveR.Order[i] {
			return fmt.Errorf("completion order diverges at position %d: sim %v, live %v",
				i, simR.Order, liveR.Order)
		}
	}
	for path, n := range simR.Bytes {
		if liveR.Bytes[path] != n {
			return fmt.Errorf("%s: sim %d bytes, live %d bytes", path, n, liveR.Bytes[path])
		}
	}
	if simR.Sessions != 1 || liveR.Sessions != 1 {
		return fmt.Errorf("not a single multiplexed session: sim %d, live %d",
			simR.Sessions, liveR.Sessions)
	}
	if !simR.Overlapped || !liveR.Overlapped {
		return fmt.Errorf("requests not concurrently outstanding: sim %t, live %t",
			simR.Overlapped, liveR.Overlapped)
	}
	return nil
}
