package tcpsim

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"spdier/internal/netem"
	"spdier/internal/rrc"
	"spdier/internal/sim"
)

// quickConfig is a quick.Config whose cases are drawn from a fixed seed,
// which it logs: a case that fails is the same case on the next run, not
// one the clock chose.
func quickConfig(t *testing.T, maxCount int) *quick.Config {
	const seed = 1
	t.Logf("quick.Check: %d cases from seed %d", maxCount, seed)
	return &quick.Config{MaxCount: maxCount, Rand: rand.New(rand.NewSource(seed))}
}

// TestPropertyTransferAlwaysCompletes is the failure-injection invariant:
// for any seed, loss rate up to 5%, shallow or deep queues, radio or no
// radio, and any write pattern, every byte written is delivered exactly
// once, in order, within a bounded simulated time, and the sender drains.
func TestPropertyTransferAlwaysCompletes(t *testing.T) {
	check := func(seed uint64, lossPct, queueSel, radioSel, writeSel uint8) bool {
		loop := sim.NewLoop()
		var radio *rrc.Machine
		if radioSel%2 == 1 {
			radio = rrc.NewMachine(loop, rrc.Profile3G())
		}
		loss := float64(lossPct%6) / 100 // 0–5%
		queue := []int{20_000, 64_000, 512_000}[int(queueSel)%3]
		cfg := netem.PathConfig{
			Up: netem.LinkConfig{
				BandwidthBPS: 2_000_000, Delay: 50 * time.Millisecond,
				Jitter: 10 * time.Millisecond, QueueBytes: 128 << 10, LossRate: loss / 4,
			},
			Down: netem.LinkConfig{
				BandwidthBPS: 8_000_000, Delay: 50 * time.Millisecond,
				Jitter: 10 * time.Millisecond, QueueBytes: queue, LossRate: loss,
			},
		}
		path := netem.NewPath(loop, cfg, sim.NewRNG(seed), radio)
		nw := NewNetwork(loop, path)
		client, server := nw.NewConnPair(DefaultConfig(), DefaultConfig(), "prop", "d")

		total := 0
		writes := 1 + int(writeSel%5)
		client.OnDeliver(func(n int) {
			if n <= 0 {
				t.Fatalf("non-positive delivery %d", n)
			}
		})
		client.OnEstablished(func() {
			rng := sim.NewRNG(seed ^ 0xfeed)
			at := loop.Now()
			for i := 0; i < writes; i++ {
				n := 10_000 + rng.Intn(150_000)
				total += n
				// Spread writes out, some across idle gaps.
				at = at.Add(time.Duration(rng.Intn(8000)) * time.Millisecond)
				loop.At(at, func() { server.Write(n) })
			}
		})
		client.Connect()
		loop.Run(10 * sim.Minute)

		if int(client.BytesRcvdApp) != total {
			t.Logf("seed=%d loss=%.2f queue=%d radio=%v writes=%d: delivered %d of %d",
				seed, loss, queue, radio != nil, writes, client.BytesRcvdApp, total)
			return false
		}
		if server.BufferedBytes() != 0 || server.InFlightBytes() != 0 {
			t.Logf("sender not drained: q=%d inflight=%d", server.BufferedBytes(), server.InFlightBytes())
			return false
		}
		// cwnd and ssthresh must stay in sane ranges.
		if server.Cwnd() < 1 || server.Ssthresh() < 2 {
			t.Logf("windows insane: cwnd=%v ssthresh=%v", server.Cwnd(), server.Ssthresh())
			return false
		}
		return true
	}
	if err := quick.Check(check, quickConfig(t, 60)); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyBidirectionalUnderLoss: both directions transfer
// concurrently over a lossy path; both complete exactly.
func TestPropertyBidirectionalUnderLoss(t *testing.T) {
	check := func(seed uint64) bool {
		loop := sim.NewLoop()
		cfg := netem.PathConfig{
			Up:   netem.LinkConfig{BandwidthBPS: 3_000_000, Delay: 40 * time.Millisecond, QueueBytes: 64 << 10, LossRate: 0.01},
			Down: netem.LinkConfig{BandwidthBPS: 6_000_000, Delay: 40 * time.Millisecond, QueueBytes: 64 << 10, LossRate: 0.01},
		}
		path := netem.NewPath(loop, cfg, sim.NewRNG(seed), nil)
		nw := NewNetwork(loop, path)
		client, server := nw.NewConnPair(DefaultConfig(), DefaultConfig(), "bidi", "d")
		client.OnEstablished(func() {
			client.Write(120_000)
			server.Write(360_000)
		})
		client.Connect()
		loop.Run(5 * sim.Minute)
		return client.BytesRcvdApp == 360_000 && server.BytesRcvdApp == 120_000
	}
	if err := quick.Check(check, quickConfig(t, 25)); err != nil {
		t.Fatal(err)
	}
}

// TestPropertySpuriousDetectionConsistency: on a lossless gated path,
// every RTO retransmission is eventually reported spurious by the
// receiver (nothing was truly lost), and undo count never exceeds the
// retransmission count.
func TestPropertySpuriousDetectionConsistency(t *testing.T) {
	check := func(seed uint64, idleSel uint8) bool {
		loop := sim.NewLoop()
		radio := rrc.NewMachine(loop, rrc.Profile3G())
		pc := netem.Profile3G()
		pc.Up.LossRate, pc.Down.LossRate = 0, 0
		path := netem.NewPath(loop, pc, sim.NewRNG(seed), radio)
		nw := NewNetwork(loop, path)
		client, server := nw.NewConnPair(DefaultConfig(), DefaultConfig(), "spur", "d")
		client.OnDeliver(func(int) {})
		client.OnEstablished(func() { server.Write(100_000) })
		client.Connect()
		loop.Run(20 * sim.Second)
		idle := time.Duration(18+int(idleSel%20)) * time.Second
		at := loop.Now().Add(idle)
		loop.At(at, func() { server.Write(100_000) })
		loop.Run(at.Add(40 * time.Second))

		if client.BytesRcvdApp != 200_000 {
			return false
		}
		totalRetx := server.Retransmits + server.FastRetransmits
		if client.SpuriousArrivals > totalRetx {
			t.Logf("more spurious arrivals (%d) than retransmissions (%d)",
				client.SpuriousArrivals, totalRetx)
			return false
		}
		if server.Undos > totalRetx {
			return false
		}
		return true
	}
	if err := quick.Check(check, quickConfig(t, 30)); err != nil {
		t.Fatal(err)
	}
}
