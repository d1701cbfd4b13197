package tcpsim

import (
	"testing"
	"testing/quick"
	"time"

	"spdier/internal/netem"
	"spdier/internal/sim"
)

// testWorld builds a clean wired network for protocol-logic tests.
type testWorld struct {
	loop *sim.Loop
	net  *Network
}

func newWorld(cfg netem.PathConfig, seed uint64) *testWorld {
	loop := sim.NewLoop()
	path := netem.NewPath(loop, cfg, sim.NewRNG(seed), nil)
	return &testWorld{loop: loop, net: NewNetwork(loop, path)}
}

func cleanPath() netem.PathConfig {
	return netem.PathConfig{
		Up:   netem.LinkConfig{BandwidthBPS: 10_000_000, Delay: 20 * time.Millisecond, QueueBytes: 1 << 20},
		Down: netem.LinkConfig{BandwidthBPS: 10_000_000, Delay: 20 * time.Millisecond, QueueBytes: 1 << 20},
	}
}

func TestHandshakeEstablishesBothEnds(t *testing.T) {
	w := newWorld(cleanPath(), 1)
	client, server := w.net.NewConnPair(DefaultConfig(), DefaultConfig(), "hs", "d")
	var clientUp, serverUp sim.Time
	client.OnEstablished(func() { clientUp = w.loop.Now() })
	server.OnEstablished(func() { serverUp = w.loop.Now() })
	client.Connect()
	// Server must see data to finish; send one byte after establishment.
	client.OnEstablished(func() { clientUp = w.loop.Now(); client.Write(10) })
	w.loop.RunUntilIdle()
	if clientUp == 0 || serverUp == 0 {
		t.Fatalf("handshake incomplete: client=%v server=%v", clientUp, serverUp)
	}
	// One RTT for SYN/SYN-ACK: ~40 ms.
	if clientUp < sim.Time(40*time.Millisecond) || clientUp > sim.Time(45*time.Millisecond) {
		t.Fatalf("client established at %v, want ≈1 RTT", clientUp)
	}
}

func TestTLSHandshakeAddsTwoRTTs(t *testing.T) {
	w := newWorld(cleanPath(), 1)
	plain, _ := w.net.NewConnPair(DefaultConfig(), DefaultConfig(), "p", "d")
	tlsCfgC, tlsCfgS := DefaultConfig(), DefaultConfig()
	tlsCfgC.TLS, tlsCfgS.TLS = true, true
	secure, _ := w.net.NewConnPair(tlsCfgC, tlsCfgS, "s", "d")

	var plainUp, tlsUp sim.Time
	plain.OnEstablished(func() { plainUp = w.loop.Now() })
	secure.OnEstablished(func() { tlsUp = w.loop.Now() })
	plain.Connect()
	secure.Connect()
	w.loop.RunUntilIdle()
	extra := tlsUp - plainUp
	// Two extra round trips ≈ 80 ms (plus serialization).
	if extra < sim.Time(80*time.Millisecond) || extra > sim.Time(100*time.Millisecond) {
		t.Fatalf("TLS extra %v, want ≈2 RTTs", extra)
	}
}

func TestBulkDeliveryExactBytes(t *testing.T) {
	w := newWorld(cleanPath(), 2)
	client, server := w.net.NewConnPair(DefaultConfig(), DefaultConfig(), "b", "d")
	got := 0
	client.OnDeliver(func(n int) { got += n })
	client.OnEstablished(func() { server.Write(1_000_000) })
	client.Connect()
	w.loop.Run(60 * sim.Second)
	if got != 1_000_000 {
		t.Fatalf("delivered %d", got)
	}
	if server.InFlightBytes() != 0 || server.BufferedBytes() != 0 {
		t.Fatalf("sender not drained: inflight=%d buffered=%d", server.InFlightBytes(), server.BufferedBytes())
	}
}

// TestDrainedOnlyAfterCloseAndLastAck: a sender closed with data still
// queued and in flight keeps delivering, and reports Drained only once
// every byte has been acknowledged.
func TestDrainedOnlyAfterCloseAndLastAck(t *testing.T) {
	w := newWorld(cleanPath(), 2)
	client, server := w.net.NewConnPair(DefaultConfig(), DefaultConfig(), "dr", "d")
	got := 0
	client.OnDeliver(func(n int) { got += n })
	client.OnEstablished(func() { client.Write(400) })
	server.OnDeliver(func(int) { server.Write(300_000) })
	client.Connect()
	w.loop.Run(100 * sim.Millisecond)
	if server.Drained() {
		t.Fatal("drained while open")
	}
	server.Close()
	if server.Drained() || server.InFlightBytes() == 0 || server.BufferedBytes() == 0 {
		t.Fatalf("closed mid-transfer: drained=%t inflight=%d buffered=%d",
			server.Drained(), server.InFlightBytes(), server.BufferedBytes())
	}
	for !server.Drained() && w.loop.Now() < 60*sim.Second {
		if server.Established() {
			t.Fatal("still established after Close")
		}
		w.loop.Run(w.loop.Now() + 10*sim.Millisecond)
	}
	if got != 300_000 || server.InFlightBytes() != 0 || server.BufferedBytes() != 0 {
		t.Fatalf("drained=%t with %d delivered, inflight=%d buffered=%d",
			server.Drained(), got, server.InFlightBytes(), server.BufferedBytes())
	}
	if client.Drained() {
		t.Fatal("the open peer reports drained")
	}
}

func TestBidirectionalTransfer(t *testing.T) {
	w := newWorld(cleanPath(), 3)
	client, server := w.net.NewConnPair(DefaultConfig(), DefaultConfig(), "bi", "d")
	cGot, sGot := 0, 0
	client.OnDeliver(func(n int) { cGot += n })
	server.OnDeliver(func(n int) { sGot += n })
	client.OnEstablished(func() {
		client.Write(50_000)
		server.Write(200_000)
	})
	client.Connect()
	w.loop.Run(30 * sim.Second)
	if cGot != 200_000 || sGot != 50_000 {
		t.Fatalf("client got %d, server got %d", cGot, sGot)
	}
}

func TestSlowStartDoublesPerRTT(t *testing.T) {
	w := newWorld(cleanPath(), 4)
	cfg := DefaultConfig()
	client, server := w.net.NewConnPair(DefaultConfig(), cfg, "ss", "d")
	client.OnDeliver(func(int) {})
	client.OnEstablished(func() { server.Write(3_000_000) })
	client.Connect()
	// After ~3 RTTs of slow start from IW10, cwnd should be ≳40.
	w.loop.Run(sim.Time(40*time.Millisecond) * 5)
	if server.Cwnd() < 40 {
		t.Fatalf("cwnd %v after 4 RTTs of slow start", server.Cwnd())
	}
	if !server.InSlowStart() {
		t.Fatalf("left slow start without loss: cwnd=%v ssthresh=%v", server.Cwnd(), server.Ssthresh())
	}
}

func TestReceiveWindowLimitsInFlight(t *testing.T) {
	w := newWorld(cleanPath(), 5)
	clientCfg := DefaultConfig()
	clientCfg.RecvBuffer = 20_000 // tiny rwnd
	client, server := w.net.NewConnPair(clientCfg, DefaultConfig(), "rw", "d")
	client.OnDeliver(func(int) {})
	maxInflight := 0
	client.OnEstablished(func() { server.Write(500_000) })
	client.Connect()
	for i := 0; i < 4000; i++ {
		w.loop.Run(w.loop.Now().Add(5 * time.Millisecond))
		if f := server.InFlightBytes(); f > maxInflight {
			maxInflight = f
		}
		if w.loop.Pending() == 0 {
			break
		}
	}
	if maxInflight > 20_000+1380 {
		t.Fatalf("in-flight %d exceeded receive window 20000", maxInflight)
	}
	if client.BytesRcvdApp != 500_000 {
		t.Fatalf("transfer incomplete under rwnd limit: %d", client.BytesRcvdApp)
	}
}

func TestFastRetransmitRepairsSingleLoss(t *testing.T) {
	// A shallow queue drops part of a burst; fast retransmit must repair
	// it without waiting for the RTO.
	cfg := cleanPath()
	cfg.Down.QueueBytes = 30_000
	w := newWorld(cfg, 6)
	client, server := w.net.NewConnPair(DefaultConfig(), DefaultConfig(), "fr", "d")
	got := 0
	client.OnDeliver(func(n int) { got += n })
	client.OnEstablished(func() { server.Write(400_000) })
	client.Connect()
	w.loop.Run(60 * sim.Second)
	if got != 400_000 {
		t.Fatalf("delivered %d", got)
	}
	if server.FastRetransmits == 0 {
		t.Fatal("expected fast retransmits from queue drops")
	}
}

func TestStreamAssemblerFIFO(t *testing.T) {
	var a StreamAssembler
	var done []int
	a.Expect(100, sim.Func(func() { done = append(done, 1) }))
	a.Expect(50, sim.Func(func() { done = append(done, 2) }))
	a.Deliver(99)
	if len(done) != 0 {
		t.Fatal("early completion")
	}
	a.Deliver(1)
	if len(done) != 1 || done[0] != 1 {
		t.Fatalf("first message: %v", done)
	}
	a.Deliver(50)
	if len(done) != 2 || done[1] != 2 {
		t.Fatalf("second message: %v", done)
	}
	// Zero-size messages complete immediately.
	a.Expect(0, sim.Func(func() { done = append(done, 3) }))
	if len(done) != 3 {
		t.Fatal("zero-size message did not complete")
	}
}

func TestStreamAssemblerProperty(t *testing.T) {
	// For any sizes and any delivery chunking, messages complete exactly
	// once, in order, and only when enough bytes have arrived.
	check := func(sizes []uint16, chunks []uint16) bool {
		var a StreamAssembler
		total := 0
		completed := make([]bool, len(sizes))
		for i, s := range sizes {
			i := i
			size := int(s % 5000)
			total += size
			a.Expect(size, sim.Func(func() {
				if completed[i] {
					panic("double completion")
				}
				// All earlier messages must already be complete.
				for j := 0; j < i; j++ {
					if !completed[j] {
						panic("out of order")
					}
				}
				completed[i] = true
			}))
		}
		delivered := 0
		for _, c := range chunks {
			n := int(c % 4000)
			if delivered+n > total {
				n = total - delivered
			}
			a.Deliver(n)
			delivered += n
		}
		a.Deliver(total - delivered)
		for _, ok := range completed {
			if !ok {
				return false
			}
		}
		return a.PendingMessages() == 0
	}
	if err := quick.Check(check, quickConfig(t, 200)); err != nil {
		t.Fatal(err)
	}
}

func TestCloseSendsFinAndNotifiesPeer(t *testing.T) {
	w := newWorld(cleanPath(), 10)
	client, server := w.net.NewConnPair(DefaultConfig(), DefaultConfig(), "fin", "d")
	closed := false
	server.OnClose(func() { closed = true })
	client.OnEstablished(func() { client.Write(10) })
	client.Connect()
	w.loop.Run(5 * sim.Second)
	client.Close()
	w.loop.Run(10 * sim.Second)
	if !closed {
		t.Fatal("peer did not observe FIN")
	}
}

func TestDeterministicRuns(t *testing.T) {
	run := func() (int, float64) {
		w := newWorld(netem.Profile3G(), 77)
		client, server := w.net.NewConnPair(DefaultConfig(), DefaultConfig(), "det", "d")
		got := 0
		client.OnDeliver(func(n int) { got += n })
		client.OnEstablished(func() { server.Write(500_000) })
		client.Connect()
		w.loop.Run(60 * sim.Second)
		return got, server.Cwnd()
	}
	g1, c1 := run()
	g2, c2 := run()
	if g1 != g2 || c1 != c2 {
		t.Fatalf("nondeterministic: (%d,%v) vs (%d,%v)", g1, c1, g2, c2)
	}
}

func TestRetransmissionCounters(t *testing.T) {
	// Lossy path: total retransmissions reported by counters must match
	// probe events.
	cfg := cleanPath()
	cfg.Down.LossRate = 0.02
	w := newWorld(cfg, 11)
	rec := NewRecorder()
	scfg := DefaultConfig()
	scfg.Probe = rec
	client, server := w.net.NewConnPair(DefaultConfig(), scfg, "rc", "d")
	client.OnDeliver(func(int) {})
	client.OnEstablished(func() { server.Write(800_000) })
	client.Connect()
	w.loop.Run(120 * sim.Second)
	if client.BytesRcvdApp != 800_000 {
		t.Fatalf("lossy transfer incomplete: %d", client.BytesRcvdApp)
	}
	if server.Retransmits+server.FastRetransmits == 0 {
		t.Fatal("no retransmissions on 2% loss")
	}
	if got := rec.Retransmissions(); got != server.Retransmits+server.FastRetransmits {
		t.Fatalf("probe count %d != counters %d", got, server.Retransmits+server.FastRetransmits)
	}
}

func TestSACKRecoveryMultiHole(t *testing.T) {
	// Drop a comb of segments mid-window by overflowing a tiny queue,
	// then verify the transfer completes promptly (SACK repairs all
	// holes without per-hole RTOs).
	cfg := cleanPath()
	cfg.Down.QueueBytes = 20_000
	w := newWorld(cfg, 12)
	client, server := w.net.NewConnPair(DefaultConfig(), DefaultConfig(), "sack", "d")
	client.OnDeliver(func(int) {})
	client.OnEstablished(func() { server.Write(600_000) })
	client.Connect()
	end := w.loop.Run(sim.Forever)
	if client.BytesRcvdApp != 600_000 {
		t.Fatalf("incomplete: %d", client.BytesRcvdApp)
	}
	// 600 KB at 10 Mbit/s ≈ 0.5 s ideal; allow generous recovery slack
	// but fail on wedge-like multi-minute tails.
	if end > 30*sim.Second {
		t.Fatalf("recovery took %v — wedged", end)
	}
}

func TestDSACKUndoRestoresCwnd(t *testing.T) {
	// Artificial spurious timeout: tiny MinRTO and a long-delay path so
	// every first-flight ACK arrives after the RTO.
	cfg := cleanPath()
	cfg.Down.Delay = 300 * time.Millisecond
	cfg.Up.Delay = 300 * time.Millisecond
	w := newWorld(cfg, 13)
	scfg := DefaultConfig()
	scfg.InitialRTO = 250 * time.Millisecond // below the 600 ms RTT
	scfg.MinRTO = 100 * time.Millisecond
	rec := NewRecorder()
	scfg.Probe = rec
	client, server := w.net.NewConnPair(DefaultConfig(), scfg, "undo", "d")
	client.OnDeliver(func(int) {})
	client.OnEstablished(func() { server.Write(13_800) })
	client.Connect()
	w.loop.Run(30 * sim.Second)
	if client.BytesRcvdApp != 13_800 {
		t.Fatalf("incomplete: %d", client.BytesRcvdApp)
	}
	if server.Retransmits == 0 {
		t.Fatal("expected a spurious timeout")
	}
	if server.Undos == 0 {
		t.Fatal("DSACK undo never fired")
	}
	if server.Cwnd() < DefaultConfig().InitialCwnd {
		t.Fatalf("cwnd not restored after undo: %v", server.Cwnd())
	}
}

func TestWritableHookKeepsSocketFed(t *testing.T) {
	w := newWorld(cleanPath(), 14)
	client, server := w.net.NewConnPair(DefaultConfig(), DefaultConfig(), "wh", "d")
	client.OnDeliver(func(int) {})
	remaining := 40
	server.SetWritableHook(8000, func() {
		if remaining > 0 {
			remaining--
			server.Write(4000)
		}
	})
	client.OnEstablished(func() { server.Write(4000); remaining-- })
	client.Connect()
	w.loop.Run(30 * sim.Second)
	if client.BytesRcvdApp != 40*4000 {
		t.Fatalf("hook-fed transfer incomplete: %d", client.BytesRcvdApp)
	}
}
