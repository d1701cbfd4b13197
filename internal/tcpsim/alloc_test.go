package tcpsim

import (
	"testing"

	"spdier/internal/sim"
)

// TestSegmentRoundTripAllocations is the tcpsim hot-path guardrail: once
// the segment pool, inflight deque and event-slot pool are warm, a full
// one-MSS write→serialize→deliver→delayed-ack round trip must cost at
// most 2 allocations (budget for map/rare-path noise; the steady path
// itself is allocation-free).
func TestSegmentRoundTripAllocations(t *testing.T) {
	loop := sim.NewLoop()
	nw := wiredNet(loop, 1)
	client, server := nw.NewConnPair(DefaultConfig(), DefaultConfig(), "a", "client")

	client.OnDeliver(func(int) {})
	client.OnEstablished(func() {})
	client.Connect()
	loop.RunUntilIdle()
	if !client.Established() || !server.Established() {
		t.Fatal("handshake did not complete")
	}

	// Warm every pool: segments, event slots, inflight deque, ooo map.
	for i := 0; i < 200; i++ {
		server.Write(DefaultConfig().MSS)
		loop.RunUntilIdle()
	}

	mss := DefaultConfig().MSS
	allocs := testing.AllocsPerRun(500, func() {
		server.Write(mss)
		loop.RunUntilIdle()
	})
	if allocs > 2 {
		t.Fatalf("segment round trip allocates %.1f per run, want <= 2", allocs)
	}
}

// TestSegmentPoolingToggle proves recycled segments cannot leak state: a
// lossy, radio-gated transfer produces identical counters and probe
// traces with pooling on and off.
func TestSegmentPoolingToggle(t *testing.T) {
	type outcome struct {
		delivered  int
		retransmit int
		fastRetx   int
		spurious   int
		samples    int
		end        sim.Time
	}
	run := func() outcome {
		loop := sim.NewLoop()
		nw := wiredNet(loop, 7)
		rec := NewRecorder()
		scfg := DefaultConfig()
		scfg.Probe = rec
		client, server := nw.NewConnPair(DefaultConfig(), scfg, "p", "client")
		got := 0
		client.OnDeliver(func(n int) { got += n })
		client.OnEstablished(func() { server.Write(400_000) })
		client.Connect()
		loop.Run(60 * sim.Second)
		return outcome{
			delivered:  got,
			retransmit: server.Retransmits,
			fastRetx:   server.FastRetransmits,
			spurious:   client.SpuriousArrivals,
			samples:    rec.Len(),
			end:        loop.Now(),
		}
	}
	defer SetSegmentPooling(true)
	SetSegmentPooling(true)
	pooled := run()
	SetSegmentPooling(false)
	unpooled := run()
	if pooled != unpooled {
		t.Fatalf("pooled %+v != unpooled %+v", pooled, unpooled)
	}
}

// TestAssemblerQueueDoesNotRegrow: an assembler with messages always
// outstanding — a multiplexed connection's steady state, where the next
// chunk is expected before the last one has landed — reuses its array.
// Re-slicing from the front instead gave the array away message by
// message and grew a new one every few appends.
func TestAssemblerQueueDoesNotRegrow(t *testing.T) {
	var a StreamAssembler
	landed := 0
	done := sim.Func(func() { landed++ })
	for i := 0; i < 8; i++ {
		a.Expect(1000, done)
	}
	if n := testing.AllocsPerRun(1000, func() {
		a.Expect(1000, done)
		a.Deliver(1000)
	}); n != 0 {
		t.Fatalf("Expect+Deliver with 8 messages outstanding allocates %v objects, want 0", n)
	}
	if landed != 1001 || a.PendingMessages() != 8 {
		t.Fatalf("%d messages landed, %d pending, want 1001 and 8", landed, a.PendingMessages())
	}
}
