package experiment

import (
	"reflect"
	"sync"
	"testing"
	"time"

	"spdier/internal/browser"
	"spdier/internal/netem"
	"spdier/internal/sim"
	"spdier/internal/tcpsim"
	"spdier/internal/webpage"
)

// Metamorphic oracles: relations that must hold between runs whose
// configurations differ in one physically meaningful way, regardless of
// the absolute numbers either run produces. They catch the bugs golden
// tests cannot — a simulator that is self-consistently wrong.

// metaSites is the workload subset the metamorphic tests share. Eight
// sites keeps each run under a second while still mixing categories.
func metaSites() []webpage.SiteSpec { return webpage.Table1()[:8] }

func meanOf(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func meanPLT(rs []*RunStats) float64 { return meanOf(allPLTStats(rs)) }

// TestPLTMonotoneInAddedLatency: adding pure propagation delay to both
// directions of the path must not make pages load faster. Checked on
// both protocols so a latency-hiding bug in either stack is caught.
func TestPLTMonotoneInAddedLatency(t *testing.T) {
	h := Harness{Runs: 2, Seed: 3}
	for _, mode := range []browser.Mode{browser.ModeHTTP, browser.ModeSPDY} {
		r := NewRunner(2)
		prev := -1.0
		prevLat := time.Duration(0)
		for _, lat := range []time.Duration{0, 80 * time.Millisecond, 240 * time.Millisecond} {
			rs := r.SweepStats(h, Options{
				Mode: mode, Network: NetWiFi, Sites: metaSites(), ExtraLatency: lat,
			})
			m := meanPLT(rs)
			if m <= 0 {
				t.Fatalf("%s lat=%v: degenerate mean PLT %v", mode, lat, m)
			}
			if prev >= 0 && m < prev {
				t.Errorf("%s: mean PLT decreased when latency rose %v -> %v: %.3fs -> %.3fs",
					mode, prevLat, lat, prev, m)
			}
			prev, prevLat = m, lat
		}
	}
}

// TestPLTMonotoneInPromotionDelay: stretching the 3G IDLE->DCH promotion
// delay is dead air before the first byte of every cold radio wakeup —
// pages must not get faster. This is the paper's central mechanism
// (radio state promotions dominating mobile PLT), so a violation means
// the RRC model is disconnected from the transport.
func TestPLTMonotoneInPromotionDelay(t *testing.T) {
	h := Harness{Runs: 2, Seed: 5}
	r := NewRunner(2)
	prev := -1.0
	prevScale := 0.0
	for _, scale := range []float64{0.5, 1, 2} {
		rs := r.SweepStats(h, Options{
			Mode: browser.ModeSPDY, Network: Net3G, Sites: metaSites(), PromotionScale: scale,
		})
		m := meanPLT(rs)
		if m <= 0 {
			t.Fatalf("scale=%g: degenerate mean PLT %v", scale, m)
		}
		if prev >= 0 && m < prev {
			t.Errorf("mean PLT decreased when promotion delay rose %gx -> %gx: %.3fs -> %.3fs",
				prevScale, scale, prev, m)
		}
		prev, prevScale = m, scale
	}
}

// TestNoLossNoRetx: on WiFi (no radio gate, so no spurious RTOs from
// promotion stalls) with link loss forced to zero and a single SPDY
// session, there is nothing that can destroy or delay a segment beyond
// the in-order FIFO path — any retransmission is a simulator bug.
func TestNoLossNoRetx(t *testing.T) {
	h := Harness{Runs: 3, Seed: 1}
	rs := NewRunner(2).SweepStats(h, Options{
		Mode: browser.ModeSPDY, Network: NetWiFi, Sites: metaSites(), NoLinkLoss: true,
	})
	for _, s := range rs {
		if s.Retx != 0 || s.Spurious != 0 {
			t.Errorf("seed %d: %d retx (%d spurious) on a lossless in-order path",
				s.Seed, s.Retx, s.Spurious)
		}
	}
}

// TestImpairmentCausesRetx is the converse control: the same lossless
// configuration with Gilbert-Elliott burst loss layered on top must
// produce retransmissions, proving the impairment actually reaches the
// transport (and that TestNoLossNoRetx is not vacuously green).
func TestImpairmentCausesRetx(t *testing.T) {
	h := Harness{Runs: 3, Seed: 1}
	rs := NewRunner(2).SweepStats(h, Options{
		Mode: browser.ModeSPDY, Network: NetWiFi, Sites: metaSites(), NoLinkLoss: true,
		Impair: netem.Impairments{GEGoodToBad: 0.02, GEBadToGood: 0.3, GELossBad: 0.5},
	})
	total := 0
	for _, s := range rs {
		total += s.Retx
	}
	if total == 0 {
		t.Fatal("burst-loss impairment produced zero retransmissions across 3 runs")
	}
}

// TestHTTPDilutesLossAcrossConnections reproduces the paper's Section 4
// observation as a relation: HTTP spreads the same workload over many
// short connections while SPDY concentrates it on one, so HTTP must
// both open more concurrent connections and spread its retransmissions
// over more of them.
func TestHTTPDilutesLossAcrossConnections(t *testing.T) {
	h := Harness{Runs: 3, Seed: 2}
	r := NewRunner(2)
	http := r.SweepStats(h, Options{Mode: browser.ModeHTTP, Network: Net3G, Sites: metaSites()})
	spdy := r.SweepStats(h, Options{Mode: browser.ModeSPDY, Network: Net3G, Sites: metaSites()})
	var httpPeak, spdyPeak, httpRetxConns, spdyRetxConns int
	for i := range http {
		httpPeak += http[i].PeakConns
		spdyPeak += spdy[i].PeakConns
		httpRetxConns += http[i].RetxConns
		spdyRetxConns += spdy[i].RetxConns
	}
	if httpPeak <= spdyPeak {
		t.Errorf("HTTP peak connections (%d) not above SPDY (%d): no connection dilution",
			httpPeak, spdyPeak)
	}
	if httpRetxConns <= spdyRetxConns {
		t.Errorf("HTTP retx spread over %d conns, SPDY over %d: losses not diluted",
			httpRetxConns, spdyRetxConns)
	}
}

// mildImpairments are perturbations small enough not to change the
// qualitative regime: ~0.1% extra bursty loss and FIFO-preserving
// jitter. Reordering is deliberately excluded — even 0.5% per-packet
// reordering floods SPDY's single large-window connection with
// duplicate ACKs and spurious fast retransmits, flipping the Figure 3/4
// orderings for real (the paper's own finding that SPDY's advantage is
// fragile under adverse paths), which is regime change, not noise.
func mildImpairments() []netem.Impairments {
	return []netem.Impairments{
		{},
		{GEGoodToBad: 0.002, GEBadToGood: 0.4, GELossBad: 0.25, ExtraJitter: 2 * time.Millisecond},
	}
}

// TestFig3DirectionStableUnderImpairment: Figure 3's qualitative claim —
// HTTP retransmits more than SPDY on 3G — must survive mild additional
// impairment. The absolute counts move; the ordering may not.
func TestFig3DirectionStableUnderImpairment(t *testing.T) {
	h := Harness{Runs: 3, Seed: 4}
	r := NewRunner(2)
	for _, im := range mildImpairments() {
		http := meanRetxStats(r.SweepStats(h, Options{
			Mode: browser.ModeHTTP, Network: Net3G, Sites: metaSites(), Impair: im,
		}))
		spdy := meanRetxStats(r.SweepStats(h, Options{
			Mode: browser.ModeSPDY, Network: Net3G, Sites: metaSites(), Impair: im,
		}))
		if http <= spdy {
			t.Errorf("impair=%+v: HTTP mean retx %.2f <= SPDY %.2f; Figure 3 ordering inverted",
				im, http, spdy)
		}
	}
}

// TestFig4DirectionStableUnderImpairment: Figure 4's qualitative claim —
// SPDY loads pages faster than HTTP on WiFi — must survive mild
// impairment. SPDY's single warm connection should, if anything, gain
// from adversity relative to HTTP's cold-start parade.
func TestFig4DirectionStableUnderImpairment(t *testing.T) {
	h := Harness{Runs: 3, Seed: 6}
	r := NewRunner(2)
	for _, im := range mildImpairments() {
		http := meanPLT(r.SweepStats(h, Options{
			Mode: browser.ModeHTTP, Network: NetWiFi, Sites: metaSites(), Impair: im,
		}))
		spdy := meanPLT(r.SweepStats(h, Options{
			Mode: browser.ModeSPDY, Network: NetWiFi, Sites: metaSites(), Impair: im,
		}))
		if spdy >= http {
			t.Errorf("impair=%+v: SPDY mean PLT %.3fs >= HTTP %.3fs; Figure 4 ordering inverted",
				im, spdy, http)
		}
	}
}

// TestFRTOEngagesAndRepairsPromotionDamage is the tentpole's oracle at
// session scale: on the paper's 3G think-time workload every idle gap
// ends in a radio promotion, so the F-RTO arm must actually engage
// (undos fire), and on a stack whose DSACK undo is ineffective —
// where the baseline keeps the collapsed window for good — undoing the
// spurious timeouts must not make pages slower, on either protocol.
// (The conn-level TestFRTOUndoRepairsPromotionTimeout pins the sharp
// per-connection claims: backoff cleared, ssthresh restored, spurious
// retransmissions at the irreducible floor.)
func TestFRTOEngagesAndRepairsPromotionDamage(t *testing.T) {
	h := Harness{Runs: 3, Seed: 8}
	r := NewRunner(2)
	for _, mode := range []browser.Mode{browser.ModeHTTP, browser.ModeSPDY} {
		base := r.SweepStats(h, Options{
			Mode: mode, Network: Net3G, Sites: metaSites(), DisableUndo: true,
		})
		frto := r.SweepStats(h, Options{
			Mode: mode, Network: Net3G, Sites: metaSites(), DisableUndo: true, FRTO: true,
		})
		undos := 0
		for _, s := range frto {
			undos += s.FrtoUndos
		}
		if undos == 0 {
			t.Errorf("%s: F-RTO never engaged across %d promotion-heavy runs", mode, h.Runs)
		}
		for _, s := range base {
			if s.FrtoUndos != 0 {
				t.Errorf("%s seed %d: baseline reported %d F-RTO undos with the arm off",
					mode, s.Seed, s.FrtoUndos)
			}
		}
		bm, fm := meanPLT(base), meanPLT(frto)
		if fm > bm {
			t.Errorf("%s: undoing spurious RTOs slowed pages down: %.3fs -> %.3fs", mode, bm, fm)
		}
	}
}

// Cross-protocol oracles: relations between the protocol arms the
// composable transport refactor makes comparable. Each pins a claim the
// protocols experiment's absolute numbers rest on.

// TestH2EqualFramingMatchesSPDY is the differential half of the h2 arm:
// with equal framing — SPDY's zlib header sizes, SPDY's 8-byte DATA
// overhead, flow-control windows too large to ever bind — the h2 stack
// is byte-for-byte the SPDY stack on the wire, so every page load time
// must be bit-identical and every loss (the link drops bytes by
// position, deterministically per seed) must land on the same segment.
// Any divergence means the h2 session pump, priority order or request
// pricing silently differs from SPDY's beyond the framing it claims is
// the only difference.
func TestH2EqualFramingMatchesSPDY(t *testing.T) {
	cases := []struct {
		name string
		set  func(*Options)
	}{
		{"3g-noloss", func(o *Options) { o.Network = Net3G; o.NoLinkLoss = true }},
		{"3g-loss", func(o *Options) { o.Network = Net3G }},
		{"wifi-loss", func(o *Options) { o.Network = NetWiFi }},
	}
	for _, tc := range cases {
		spdyOpts := Options{Mode: browser.ModeSPDY, Sites: metaSites(), Seed: 3}
		tc.set(&spdyOpts)
		h2Opts := spdyOpts
		h2Opts.Mode = browser.ModeH2
		h2Opts.H2EqualFraming = true
		spdy, h2 := Run(spdyOpts), Run(h2Opts)

		sp, hp := spdy.PLTSeconds(), h2.PLTSeconds()
		if len(sp) != len(hp) {
			t.Fatalf("%s: page counts %d vs %d", tc.name, len(sp), len(hp))
		}
		for i := range sp {
			if sp[i] != hp[i] {
				t.Errorf("%s page %d: spdy PLT %v, equal-framing h2 PLT %v", tc.name, i, sp[i], hp[i])
			}
		}
		if sr, hr := spdy.Retransmissions(), h2.Retransmissions(); sr != hr {
			t.Errorf("%s: retransmissions %d vs %d — losses fell on different bytes", tc.name, sr, hr)
		}
		if spdy.Incomplete != 0 || h2.Incomplete != 0 {
			t.Errorf("%s: incomplete pages spdy=%d h2=%d", tc.name, spdy.Incomplete, h2.Incomplete)
		}
	}
}

// noHoLOutcome is one full execution of the no-HoL oracle: per-stream
// completion times for clean and single-stream-lossy transfers on both
// a QUIC-style transport and the shared TCP connection SPDY/h2 ride.
type noHoLOutcome struct {
	quicClean, quicLossy map[uint32]sim.Time
	tcpClean, tcpLossy   map[uint32]sim.Time
	quicDrops, tcpDrops  int
}

// geDropper is a seeded Gilbert-Elliott chain: the filter consults it
// once per candidate packet, so the loss pattern is bursty but fully
// deterministic for a given seed.
type geDropper struct {
	rng *sim.RNG
	bad bool
}

func (g *geDropper) drop() bool {
	if g.bad {
		if g.rng.Float64() < 0.3 {
			g.bad = false
		}
	} else if g.rng.Float64() < 0.25 {
		g.bad = true
	}
	return g.bad && g.rng.Float64() < 0.6
}

// runNoHoLOracle interleaves three equal streams over one session and
// applies seeded GE loss to stream 1's bytes only — QUIC can target the
// stream directly (packets carry stream IDs); on TCP the filter targets
// the byte ranges stream 1's chunks occupy in the multiplexed sequence
// space. Retransmissions are never dropped, so recovery always succeeds
// and completion times are well-defined.
func runNoHoLOracle(t *testing.T) noHoLOutcome {
	t.Helper()
	const (
		chunk   = 1380 // == MSS, so TCP segments align with chunk boundaries
		rounds  = 24
		total   = chunk * rounds
		geSeed  = 97
		streams = 3
	)

	quicRun := func(lossy bool) (map[uint32]sim.Time, int) {
		loop := sim.NewLoop()
		cfg := netem.ProfileWiFi()
		cfg.Up.LossRate, cfg.Down.LossRate = 0, 0
		cfg.Up.Jitter, cfg.Down.Jitter = 0, 0
		path := netem.NewPath(loop, cfg, sim.NewRNG(7), nil)
		net := tcpsim.NewNetwork(loop, path)
		ccfg := tcpsim.DefaultConfig()
		// A window larger than the whole transfer: congestion control
		// never binds, so the only coupling left between streams is the
		// delivery discipline under loss — exactly what the oracle tests.
		ccfg.InitialCwnd = 1 << 17
		client, server := net.NewQUICPair(ccfg, ccfg, "q1", "example.org")

		drops := 0
		if lossy {
			ge := &geDropper{rng: sim.NewRNG(geSeed)}
			path.AtoB.SetFilter(func(p netem.Payload, _ int) bool {
				qp, ok := p.(*tcpsim.QUICPacket)
				if !ok || qp.Ack || qp.Hs != 0 || qp.Len == 0 || qp.StreamID != 1 {
					return true
				}
				if ge.drop() {
					drops++
					return false
				}
				return true
			})
		}
		done := map[uint32]sim.Time{}
		got := map[uint32]int{}
		server.OnStreamDeliver(func(sid uint32, n int) {
			got[sid] += n
			if got[sid] == total {
				done[sid] = loop.Now()
			}
		})
		client.OnEstablished(func() {
			for i := 0; i < rounds; i++ {
				client.WriteStream(1, chunk)
				client.WriteStream(3, chunk)
				client.WriteStream(5, chunk)
			}
		})
		client.Connect()
		loop.RunUntilIdle()
		for _, sid := range []uint32{1, 3, 5} {
			if got[sid] != total {
				t.Fatalf("quic lossy=%v: stream %d delivered %d/%d bytes", lossy, sid, got[sid], total)
			}
		}
		return done, drops
	}

	tcpRun := func(lossy bool) (map[uint32]sim.Time, int) {
		loop := sim.NewLoop()
		cfg := netem.ProfileWiFi()
		cfg.Up.LossRate, cfg.Down.LossRate = 0, 0
		cfg.Up.Jitter, cfg.Down.Jitter = 0, 0
		path := netem.NewPath(loop, cfg, sim.NewRNG(7), nil)
		net := tcpsim.NewNetwork(loop, path)
		ccfg := tcpsim.DefaultConfig()
		ccfg.InitialCwnd = 1 << 17 // same discipline as the QUIC leg
		client, server := net.NewConnPair(ccfg, ccfg, "t1", "example.org")

		drops := 0
		if lossy {
			ge := &geDropper{rng: sim.NewRNG(geSeed)}
			base := ^uint64(0)
			path.AtoB.SetFilter(func(p netem.Payload, _ int) bool {
				seg, ok := p.(*tcpsim.Segment)
				if !ok || seg.Len == 0 || seg.Retx {
					return true
				}
				if base == ^uint64(0) {
					base = seg.Seq
				}
				// Chunks are written stream 1, 3, 5 per round and are
				// MSS-sized, so a segment whose cycle offset falls in the
				// first chunk carries stream 1's bytes.
				if (seg.Seq-base)%(streams*chunk) >= chunk {
					return true
				}
				if ge.drop() {
					drops++
					return false
				}
				return true
			})
		}
		done := map[uint32]sim.Time{}
		got := map[uint32]int{}
		asm := &tcpsim.StreamAssembler{}
		server.OnDeliver(asm.Deliver)
		for i := 0; i < rounds; i++ {
			for _, sid := range []uint32{1, 3, 5} {
				sid := sid
				asm.Expect(chunk, sim.Func(func() {
					got[sid] += chunk
					if got[sid] == total {
						done[sid] = loop.Now()
					}
				}))
			}
		}
		client.OnEstablished(func() {
			for i := 0; i < rounds; i++ {
				client.Write(chunk) // stream 1's chunk
				client.Write(chunk) // stream 3's
				client.Write(chunk) // stream 5's
			}
		})
		client.Connect()
		loop.RunUntilIdle()
		for _, sid := range []uint32{1, 3, 5} {
			if got[sid] != total {
				t.Fatalf("tcp lossy=%v: stream %d delivered %d/%d bytes", lossy, sid, got[sid], total)
			}
		}
		return done, drops
	}

	var out noHoLOutcome
	out.quicClean, _ = quicRun(false)
	out.quicLossy, out.quicDrops = quicRun(true)
	out.tcpClean, _ = tcpRun(false)
	out.tcpLossy, out.tcpDrops = tcpRun(true)
	return out
}

// checkNoHoLOutcome asserts the oracle proper: under seeded GE loss
// confined to stream 1, QUIC's untouched streams complete no later than
// their zero-loss trace (no transport HoL blocking), while the same
// loss pattern on the shared TCP byte stream stalls the streams that
// lost nothing of their own — the paper's single-connection fragility,
// reproduced as a relation.
func checkNoHoLOutcome(t *testing.T, out noHoLOutcome) {
	t.Helper()
	if out.quicDrops == 0 || out.tcpDrops == 0 {
		t.Fatalf("filter never bit: quicDrops=%d tcpDrops=%d", out.quicDrops, out.tcpDrops)
	}
	for _, sid := range []uint32{3, 5} {
		if out.quicLossy[sid] > out.quicClean[sid] {
			t.Errorf("quic stream %d: lossy completion %v later than zero-loss %v (HoL blocking)",
				sid, out.quicLossy[sid], out.quicClean[sid])
		}
		if out.tcpLossy[sid] <= out.tcpClean[sid] {
			t.Errorf("tcp stream %d: lossy completion %v not later than zero-loss %v — shared-connection HoL blocking vanished",
				sid, out.tcpLossy[sid], out.tcpClean[sid])
		}
	}
	if out.quicLossy[1] <= out.quicClean[1] {
		t.Errorf("quic stream 1: lossy completion %v not later than zero-loss %v; loss had no effect",
			out.quicLossy[1], out.quicClean[1])
	}
}

// TestQUICNoHoLUnderSingleStreamLoss runs the no-HoL oracle serially,
// then as eight concurrent executions whose outcomes must all be
// bit-identical to the serial one — the determinism contract for the
// QUIC transport under -race at 1-way and 8-way parallelism.
func TestQUICNoHoLUnderSingleStreamLoss(t *testing.T) {
	serial := runNoHoLOracle(t)
	checkNoHoLOutcome(t, serial)

	outs := make([]noHoLOutcome, 8)
	var wg sync.WaitGroup
	for i := range outs {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			outs[i] = runNoHoLOracle(t)
		}()
	}
	wg.Wait()
	for i, out := range outs {
		if !reflect.DeepEqual(out, serial) {
			t.Errorf("parallel execution %d diverged from serial:\n  serial:   %+v\n  parallel: %+v", i, serial, out)
		}
		checkNoHoLOutcome(t, out)
	}
}

// TestPLTMonotoneInPromotionDelayAllProtocols extends the promotion
// oracle across every protocol arm: stretching the IDLE->DCH promotion
// delay is dead air before every cold radio wakeup, so no protocol —
// however it multiplexes, frames or resumes — may load pages faster
// because of it.
func TestPLTMonotoneInPromotionDelayAllProtocols(t *testing.T) {
	h := Harness{Runs: 2, Seed: 5}
	r := NewRunner(2)
	for _, mode := range []browser.Mode{browser.ModeHTTP, browser.ModeSPDY, browser.ModeH2, browser.ModeQUIC} {
		prev := -1.0
		prevScale := 0.0
		for _, scale := range []float64{1, 2} {
			rs := r.SweepStats(h, Options{
				Mode: mode, Network: Net3G, Sites: metaSites(), PromotionScale: scale,
			})
			m := meanPLT(rs)
			if m <= 0 {
				t.Fatalf("%s scale=%g: degenerate mean PLT %v", mode, scale, m)
			}
			if prev >= 0 && m < prev {
				t.Errorf("%s: mean PLT decreased when promotion delay rose %gx -> %gx: %.3fs -> %.3fs",
					mode, prevScale, scale, prev, m)
			}
			prev, prevScale = m, scale
		}
	}
}

// TestRecoveryArmsSweepParallelMatchesSerial extends the determinism
// contract to the fix arms: probe timers, RACK reordering windows and
// F-RTO undo decisions are all functions of simulated time and the run
// RNG, so a fully-armed sweep over an impaired path must stay
// bit-for-bit identical at any parallelism.
func TestRecoveryArmsSweepParallelMatchesSerial(t *testing.T) {
	h := Harness{Runs: 4, Seed: 31}
	base := Options{
		Mode: browser.ModeSPDY, Network: Net3G, Sites: metaSites(),
		TLP: true, RACK: true, FRTO: true,
		Impair: netem.Impairments{
			GEGoodToBad: 0.01, GEBadToGood: 0.25, GELossBad: 0.4,
			ReorderProb: 0.01, ReorderDelay: 10 * time.Millisecond,
			DupProb:     0.01,
			ExtraJitter: 5 * time.Millisecond,
		},
	}
	serial := sweepResults(NewRunner(1), h, base)
	par := sweepResults(NewRunner(8), h, base)
	if len(serial) != len(par) {
		t.Fatalf("length %d vs %d", len(serial), len(par))
	}
	for i := range serial {
		s, g := serial[i], par[i]
		sp, gp := s.PLTSeconds(), g.PLTSeconds()
		if len(sp) != len(gp) {
			t.Fatalf("run %d: %d vs %d pages", i, len(sp), len(gp))
		}
		for j := range sp {
			if sp[j] != gp[j] {
				t.Fatalf("run %d page %d: PLT %v vs %v", i, j, sp[j], gp[j])
			}
		}
		if s.Retransmissions() != g.Retransmissions() {
			t.Fatalf("run %d: retx %d vs %d", i, s.Retransmissions(), g.Retransmissions())
		}
		compareRecorders(t, "arms-parallel", i, s.Recorder, g.Recorder)
	}
}

// TestImpairedSweepParallelMatchesSerial extends the determinism
// contract to impaired paths: Gilbert-Elliott state, reorder side
// deliveries and pool-sourced duplicates all draw from the run RNG, so
// a sweep with every impairment active must still be bit-for-bit
// identical at any parallelism.
func TestImpairedSweepParallelMatchesSerial(t *testing.T) {
	h := Harness{Runs: 4, Seed: 21}
	base := Options{
		Mode: browser.ModeSPDY, Network: Net3G, Sites: metaSites(),
		Impair: netem.Impairments{
			GEGoodToBad: 0.01, GEBadToGood: 0.25, GELossBad: 0.4,
			ReorderProb: 0.01, ReorderDelay: 10 * time.Millisecond,
			DupProb:     0.01,
			ExtraJitter: 5 * time.Millisecond,
		},
	}
	serial := sweepResults(NewRunner(1), h, base)
	par := sweepResults(NewRunner(8), h, base)
	if len(serial) != len(par) {
		t.Fatalf("length %d vs %d", len(serial), len(par))
	}
	for i := range serial {
		s, g := serial[i], par[i]
		if s.Opts.Seed != g.Opts.Seed {
			t.Fatalf("run %d: seed %d vs %d", i, s.Opts.Seed, g.Opts.Seed)
		}
		sp, gp := s.PLTSeconds(), g.PLTSeconds()
		if len(sp) != len(gp) {
			t.Fatalf("run %d: %d vs %d pages", i, len(sp), len(gp))
		}
		for j := range sp {
			if sp[j] != gp[j] {
				t.Fatalf("run %d page %d: PLT %v vs %v", i, j, sp[j], gp[j])
			}
		}
		if s.Retransmissions() != g.Retransmissions() {
			t.Fatalf("run %d: retx %d vs %d", i, s.Retransmissions(), g.Retransmissions())
		}
		if s.Duration != g.Duration {
			t.Fatalf("run %d: duration %v vs %v", i, s.Duration, g.Duration)
		}
		compareRecorders(t, "impaired-parallel", i, s.Recorder, g.Recorder)
	}
}
