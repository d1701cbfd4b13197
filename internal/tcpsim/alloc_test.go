package tcpsim

import (
	"runtime"
	"testing"
	"time"
	"unsafe"

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

// shelved counts the flight arrays and the assembler queue arrays
// standing on the network's shelves.
func shelved(nw *Network) (windows, queues int) {
	for _, b := range nw.windows.bins {
		windows += len(b)
	}
	for _, b := range nw.queues.bins {
		queues += len(b)
	}
	return windows, queues
}

// shortConn is one connection of TestWindowsAreReused's pages, and the
// handler of its two steps, so that a page allocates nothing the test
// would have to discount.
type shortConn struct {
	client, server *Conn
	resp, req      StreamAssembler
	size           int
}

type (
	sendRequest  shortConn // the handshake is done
	sendResponse shortConn // the request has arrived
)

func (s *sendRequest) Call() { s.client.Write(400) }

func (s *sendResponse) Call() {
	s.resp.Expect(s.size, nil)
	s.server.Write(s.size)
}

// TestWindowsAreReused: a page's worth of short connections — opened
// together, a request up and a response of some tens of segments down on
// each, closed when idle — takes its flight arrays and assembler queues
// from the network and hands every one back when it has finished, so the
// second page of a session runs on the arrays of the first: as many stand
// on the shelves after it, and after three more, as before it — none was
// allocated and none lost.
func TestWindowsAreReused(t *testing.T) {
	withoutInvariants(func() {
		loop := sim.NewLoop()
		nw := wiredNet(loop, 1)
		conns := make([]shortConn, 12)
		page := func() {
			for i := range conns {
				c := &conns[i]
				*c = shortConn{size: 20_000 + 4_000*i}
				c.client, c.server = nw.NewConnPair(DefaultConfig(), DefaultConfig(), "w", "d")
				c.resp.Attach(c.client)
				c.req.Attach(c.server)
				c.req.Expect(400, (*sendResponse)(c))
				c.client.OnEstablishedCall((*sendRequest)(c))
				c.client.Connect()
			}
			loop.RunUntilIdle()
			for i := range conns {
				c := &conns[i]
				if c.client.BytesRcvdApp != int64(c.size) || c.resp.PendingMessages() != 0 {
					t.Fatalf("connection %d: %d of %d response bytes delivered", i, c.client.BytesRcvdApp, c.size)
				}
				c.client.Close()
				c.server.Close()
			}
			loop.RunUntilIdle()
		}
		page()
		w1, q1 := shelved(nw)
		if w1 < 2*len(conns) || q1 == 0 {
			t.Fatalf("after the first page %d flight arrays and %d queue arrays are shelved; every connection borrowed one each way", w1, q1)
		}
		for n := 2; n <= 5; n++ {
			page()
			if w, q := shelved(nw); w != w1 || q != q1 {
				t.Fatalf("the shelves hold %d flight and %d queue arrays after page %d, %d and %d after the first: a page allocated or lost one", w, q, n, w1, q1)
			}
		}
	})
}

// TestQUICAckAllocations: a warm receiver whose range set is full — 32
// intervals, the most an ACK carries — sends an ACK and the sender takes
// it without allocating: the ranges ride an array on loan from the
// network, back there once the ACK is handled.
func TestQUICAckAllocations(t *testing.T) {
	withoutInvariants(func() {
		loop := sim.NewLoop()
		nw := wiredNet(loop, 1)
		client, _ := nw.NewQUICPair(DefaultConfig(), DefaultConfig(), "ack", "d")
		client.Connect()
		loop.RunUntilIdle()
		for pn := uint64(0); pn < 2*quicMaxAckRanges; pn += 2 {
			client.recordPN(pn)
		}
		if len(client.rcvRanges) != quicMaxAckRanges {
			t.Fatalf("the receiver holds %d ranges, want %d", len(client.rcvRanges), quicMaxAckRanges)
		}
		if n := testing.AllocsPerRun(500, func() {
			client.sendAckNow()
			loop.RunUntilIdle()
		}); n != 0 {
			t.Fatalf("an ACK of %d ranges, sent and handled, allocates %v objects, want 0", quicMaxAckRanges, n)
		}
		if nw.LiveSegments() != 0 || nw.ranges.live != 0 || len(nw.ranges.free) == 0 {
			t.Fatalf("after the ACKs: %d packets and %d range arrays live, %d back on the network",
				nw.LiveSegments(), nw.ranges.live, len(nw.ranges.free))
		}
	})
}

// TestQUICStreamRecordAllocations: an endpoint keeps its streams by value
// in one growing slice, found by ID through one map, so opening them
// costs the growth of the two — 25 objects for the 345 streams the
// busiest endpoint of quic/3g seeds 1–30 opens (the median one opens
// 171) — not an object a stream. Half the IDs here are sparse, as the
// beacons' are.
func TestQUICStreamRecordAllocations(t *testing.T) {
	const streams, budget = 345, 28
	nw := blackholeNet()
	withoutInvariants(func() {
		pair := testing.AllocsPerRun(100, func() { nw.NewQUICPair(DefaultConfig(), DefaultConfig(), "s", "d") })
		opened := testing.AllocsPerRun(100, func() {
			_, q := nw.NewQUICPair(DefaultConfig(), DefaultConfig(), "s", "d")
			for i := uint32(0); i < streams; i++ {
				q.deliverStream(2*i+1+20000*(i%2), 0, 100)
			}
		})
		t.Logf("a pair costs %v objects, and %v with %d streams opened on one end", pair, opened, streams)
		if opened-pair > budget {
			t.Fatalf("opening %d streams costs %v objects, want at most %d", streams, opened-pair, budget)
		}
	})
}

// TestNewPairAllocations: both endpoints of a TCP connection, their
// congestion controllers and their names cost no object of their own
// (they were twelve): the pair is cut from the network's pair
// slab and the names from its name chunks. What is left is a chunk of
// either now and then and the network's list of connections growing,
// which over a thousand pairs averages under one object a pair.
func TestNewPairAllocations(t *testing.T) {
	nw := blackholeNet()
	cfg := DefaultConfig()
	cfg.Metrics = NewMetricsCache()
	cfg.Metrics.Store("d", MetricsEntry{Ssthresh: 20, SRTT: 80 * time.Millisecond, RTTVar: 10 * time.Millisecond})
	withoutInvariants(func() {
		if n := testing.AllocsPerRun(1000, func() { nw.NewConnPair(cfg, cfg, "h001.example.org", "d") }); n > 0 {
			t.Fatalf("NewConnPair allocates %v objects, want 0", n)
		}
	})
}

// TestWireChunkSizes: each wire slab's cap is the most records that fit
// the allocator's 8,192-byte class, counting the 8-byte header a chunk
// carries when its record holds a pointer (every chunk here is over the
// 512 bytes below which none does). One record more must not fit.
func TestWireChunkSizes(t *testing.T) {
	const class, header = 8192, 8
	for _, c := range []struct {
		name     string
		size     uintptr
		pointers bool
		limit    int
	}{
		{"Segment", unsafe.Sizeof(Segment{}), true, wireChunk},
		{"QUICPacket", unsafe.Sizeof(QUICPacket{}), true, wireChunk},
		{"SACK array", unsafe.Sizeof([maxSackBlocks][2]uint64{}), false, sackChunk},
		{"ranges array", unsafe.Sizeof([quicMaxAckRanges][2]uint64{}), false, rangeChunk},
		{"ConnStats", unsafe.Sizeof(ConnStats{}), true, tableChunk},
	} {
		h := uintptr(0)
		if c.pointers {
			h = header
		}
		full, over := uintptr(c.limit)*c.size+h, uintptr(c.limit+1)*c.size+h
		t.Logf("%s: %d bytes; a chunk of %d takes %d bytes", c.name, c.size, c.limit, full)
		if full > class {
			t.Errorf("%s: a chunk of %d takes %d bytes, over the %d-byte class", c.name, c.limit, full, class)
		}
		if over <= class {
			t.Errorf("%s: a chunk of %d would take %d bytes, still in the %d-byte class: refit the cap", c.name, c.limit+1, over, class)
		}
	}
}

// TestConnSize: a pair in a slab carries no allocator header, so the
// size-class argument is the chunk's: pairChunk pairs with the 8-byte
// header the allocator gives a pointer-bearing object over 512 bytes
// must stay in the 28,672-byte class, 1,792 bytes a pair — the next is
// 32,768, an eighth more for every pair a run holds at once. A Conn is
// held to 888 bytes on its own: the 896-byte class less the header.
// Beside its record a pair adds, for as long as the run, its two
// endpoints' records to the network's table (Conns), held to their own
// budget: 8,192 bytes a tableChunk of them.
func TestConnSize(t *testing.T) {
	const header = 8
	if s := unsafe.Sizeof(Conn{}); s+header > 896 {
		t.Errorf("Conn is %d bytes, want at most %d", s, 896-header)
	}
	if s := unsafe.Sizeof([pairChunk]connPair{}); s+header > 28672 {
		t.Errorf("a chunk of %d pairs is %d bytes, want at most %d", pairChunk, s, 28672-header)
	}
	// And what the allocator makes of it. The table grows the same way
	// whoever adds to it, so what it takes for 2,000 records on its own
	// is its share of the 1,000 pairs, and the rest is theirs.
	withoutInvariants(func() {
		var before, after, tableBefore, tableAfter runtime.MemStats
		nw := blackholeNet()
		nw.held = make([]*connPair, 0, 1024)
		runtime.ReadMemStats(&before)
		for i := 0; i < 1000; i++ {
			nw.NewConnPair(DefaultConfig(), DefaultConfig(), "size", "d")
		}
		runtime.ReadMemStats(&after)
		var table connTable
		runtime.ReadMemStats(&tableBefore)
		for i := 0; i < 2000; i++ {
			table.add("size")
		}
		runtime.ReadMemStats(&tableAfter)
		tableBytes := tableAfter.TotalAlloc - tableBefore.TotalAlloc
		per := (after.TotalAlloc - before.TotalAlloc - tableBytes) / 1000
		t.Logf("a pair takes %d bytes of heap, and %d of the table's", per, tableBytes/1000)
		if per > 1792+32 {
			t.Errorf("a pair takes %d bytes of heap, want its 1,792-byte share of a chunk and of the name chunks", per)
		}
		// The table's share: two records a pair of a full 8,192-byte
		// chunk, and 21 bytes a pair over these 1,000 for the first
		// chunk's doubling (2 to 64 records, 12,096 bytes), the last
		// chunk's empty end and the list of chunks.
		if tp := tableBytes / 1000; tp > 2*8192/tableChunk+21 {
			t.Errorf("the table takes %d bytes a pair, want at most %d", tp, 2*8192/tableChunk+21)
		}
	})
}
