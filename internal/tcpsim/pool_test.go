package tcpsim

import (
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"spdier/internal/netem"
	"spdier/internal/sim"
)

// TestFreeListBalancesAcrossTransports runs TCP and QUIC pairs over one
// lossy, duplicating path and requires every segment and packet handed
// out to have been retired once the network is quiet, and every array of
// ACK ranges lent to a packet to be back on the network, once. One TCP
// pair runs the modelled TLS handshake, whose control segments take
// their own path out of the pool (transmitCtrl). A lost control segment
// is never resent, so that pair must deliver everything: with this seed
// and pair order all of its control segments reach the peer.
func TestFreeListBalancesAcrossTransports(t *testing.T) {
	loop := sim.NewLoop()
	link := netem.LinkConfig{BandwidthBPS: 3_000_000, Delay: 20 * time.Millisecond, QueueBytes: 6 << 10, LossRate: 0.02}
	cfg := netem.PathConfig{Up: link, Down: link}.WithImpairments(netem.Impairments{ReorderProb: 0.03, DupProb: 0.05})
	nw := NewNetwork(loop, netem.NewPath(loop, cfg, sim.NewRNG(5), nil))
	// More arrays than ACKs are ever in flight at once, so every loan
	// comes off this stock and the stock is what must come back.
	stock := map[*[quicMaxAckRanges][2]uint64]bool{}
	for range 256 {
		a := new([quicMaxAckRanges][2]uint64)
		stock[a] = true
		nw.ranges = append(nw.ranges, a)
	}

	tls := DefaultConfig()
	tls.TLS = true
	lc, ls := nw.NewConnPair(tls, tls, "l", "d")
	tlsDelivered := 0
	lc.OnDeliver(func(n int) { tlsDelivered += n })
	lc.OnEstablished(func() { ls.Write(150 << 10) })
	lc.Connect()
	tc, ts := nw.NewConnPair(DefaultConfig(), DefaultConfig(), "t", "d")
	tc.OnDeliver(func(int) {})
	tc.OnEstablished(func() { ts.Write(150 << 10) })
	tc.Connect()
	qc, qs := nw.NewQUICPair(DefaultConfig(), DefaultConfig(), "q", "d")
	qc.OnEstablished(func() { qs.WriteStream(1, 150<<10) })
	qc.Connect()
	loop.RunUntilIdle()

	if nw.segs.live != 0 || nw.qpkts.live != 0 || nw.LiveSegments() != 0 {
		t.Fatalf("after quiescing: %d segments and %d packets live (negative = double free)", nw.segs.live, nw.qpkts.live)
	}
	if len(nw.segs.free) == 0 || len(nw.qpkts.free) == 0 {
		t.Fatalf("nothing was recycled: %d segments, %d packets on the free lists", len(nw.segs.free), len(nw.qpkts.free))
	}
	back := map[*[quicMaxAckRanges][2]uint64]bool{}
	for _, a := range nw.ranges {
		if !stock[a] || back[a] {
			t.Fatalf("range array %p is back twice or was never lent from the stock", a)
		}
		back[a] = true
	}
	if len(back) != len(stock) {
		t.Fatalf("after quiescing: %d of %d range arrays are back", len(back), len(stock))
	}
	if tlsDelivered != 150<<10 {
		t.Fatalf("the TLS pair delivered %d of %d bytes: its handshake did not complete", tlsDelivered, 150<<10)
	}
	if qc.Retransmits+qs.Retransmits == 0 {
		t.Fatal("no QUIC packet was lost: the loss path of the ranges loan was not exercised")
	}
	down := nw.Path().BtoA.Stats()
	if down.DroppedQueue == 0 || down.Duplicated == 0 {
		t.Fatalf("the drop and duplicate paths were not exercised: %+v", down)
	}
}

// TestReleasedNetworkKeepsNoWireChunk: once a run is over and its
// network released, nothing the network keeps reaches a chunk of its
// wire slabs — segments, QUIC packets, SACK arrays, ACK-range arrays. A
// pointer to one unit keeps its whole chunk, 8 KB, not the unit's 120
// bytes, so a Result holding its network must be shown to hold none.
func TestReleasedNetworkKeepsNoWireChunk(t *testing.T) {
	loop := sim.NewLoop()
	link := netem.LinkConfig{BandwidthBPS: 3_000_000, Delay: 20 * time.Millisecond, QueueBytes: 6 << 10, LossRate: 0.02}
	cfg := netem.PathConfig{Up: link, Down: link}.WithImpairments(netem.Impairments{ReorderProb: 0.03, DupProb: 0.05})
	nw := NewNetwork(loop, netem.NewPath(loop, cfg, sim.NewRNG(5), nil))
	tc, ts := nw.NewConnPair(DefaultConfig(), DefaultConfig(), "t", "d")
	tc.OnDeliver(func(int) {})
	tc.OnEstablished(func() { ts.Write(300 << 10) })
	tc.Connect()
	qc, qs := nw.NewQUICPair(DefaultConfig(), DefaultConfig(), "q", "d")
	qc.OnEstablished(func() { qs.WriteStream(1, 300<<10) })
	qc.Connect()
	loop.RunUntilIdle()

	var freed [4]atomic.Bool
	for i, carved := range []int{len(nw.segs.slab.chunk), len(nw.qpkts.slab.chunk), len(nw.sacks.chunk), len(nw.rangeSlab.chunk)} {
		if carved == 0 {
			t.Fatalf("wire slab %d carved nothing: the traffic did not reach it", i)
		}
	}
	runtime.SetFinalizer(&nw.segs.slab.chunk[0], func(*Segment) { freed[0].Store(true) })
	runtime.SetFinalizer(&nw.qpkts.slab.chunk[0], func(*QUICPacket) { freed[1].Store(true) })
	runtime.SetFinalizer(&nw.sacks.chunk[0], func(*[maxSackBlocks][2]uint64) { freed[2].Store(true) })
	runtime.SetFinalizer(&nw.rangeSlab.chunk[0], func(*[quicMaxAckRanges][2]uint64) { freed[3].Store(true) })

	loop.Release()
	nw.ReleaseRuntime()
	tc, ts, qc, qs, loop = nil, nil, nil, nil, nil
	all := func() bool { return freed[0].Load() && freed[1].Load() && freed[2].Load() && freed[3].Load() }
	for i := 0; i < 100 && !all(); i++ {
		runtime.GC()
		runtime.Gosched()
	}
	for i, what := range []string{"segment", "QUIC packet", "SACK array", "ACK-range array"} {
		if !freed[i].Load() {
			t.Errorf("the released network still reaches its %s chunk", what)
		}
	}
	runtime.KeepAlive(nw)
}

// TestRecycledUnitKeepsOnlyItsSliceCapacity: a unit recycled and retired
// is the unit that comes back from the free list, zero in every field.
// A segment keeps the backing array of its SACK blocks, for its next
// ACK; a packet keeps nothing, its ACK ranges array back on the network,
// where the next ACK's loan finds it.
func TestRecycledUnitKeepsOnlyItsSliceCapacity(t *testing.T) {
	nw := &Network{}
	s := nw.segs.get()
	*s = Segment{to: &Conn{net: nw}, From: "x", Flags: flagACK, Seq: 1, Len: 2, Ack: 3, Wnd: 4, Retx: true, Dsack: true,
		Delayed: true, Sack: append(make([][2]uint64, 0, 4), [2]uint64{5, 6}), TSVal: 7, TSEcr: 8, CtrlLen: 9}
	nw.retireSeg(s)
	if got := nw.segs.get(); got != s || len(got.Sack) != 0 || cap(got.Sack) != 4 {
		t.Fatalf("recycled segment: same=%v len(Sack)=%d cap(Sack)=%d, want true, 0, 4", got == s, len(got.Sack), cap(got.Sack))
	}
	s.Sack = nil
	if !reflect.DeepEqual(*s, Segment{}) {
		t.Fatalf("recycled segment kept state: %+v", *s)
	}

	p := nw.qpkts.get()
	ranges := nw.takeRanges()
	*p = QUICPacket{to: &QUICConn{net: nw}, From: "x", PN: 1, StreamID: 2, Offset: 3, Len: 4, Fin: true, Hs: 1, CtrlLen: 5,
		Ack: true, AckLargest: 6, AckRanges: append(ranges, [2]uint64{7, 8})}
	nw.retirePkt(p)
	if got := nw.qpkts.get(); got != p || !reflect.DeepEqual(*got, QUICPacket{}) {
		t.Fatalf("recycled packet: same=%v, kept %+v", got == p, *got)
	}
	if a := nw.takeRanges(); unsafe.SliceData(a) != unsafe.SliceData(ranges) || len(a) != 0 {
		t.Fatalf("the packet's ranges array is not what the next loan gets: %v (cap %d)", a, cap(a))
	}
	if nw.segs.live != 1 || nw.qpkts.live != 1 || len(nw.ranges) != 0 {
		t.Fatalf("live counts %d/%d and %d range arrays shelved with one unit of each and the array handed out",
			nw.segs.live, nw.qpkts.live, len(nw.ranges))
	}
}

// TestUnpooledRetireLeavesTheUnitIntact: with pooling off a retired unit
// is neither zeroed nor kept, so a pointer wrongly held past the handler
// reads its own bytes there and recycled ones with pooling on — the
// difference the pooled-versus-unpooled runs are compared for.
func TestUnpooledRetireLeavesTheUnitIntact(t *testing.T) {
	defer SetSegmentPooling(true)
	SetSegmentPooling(false)
	nw := &Network{}
	s, p := nw.segs.get(), nw.qpkts.get()
	s.Seq, p.PN = 7, 9
	nw.retireSeg(s)
	nw.retirePkt(p)
	if s.Seq != 7 || p.PN != 9 {
		t.Fatalf("unpooled retire rewrote the unit: Seq=%d PN=%d", s.Seq, p.PN)
	}
	if nw.LiveSegments() != 0 || len(nw.segs.free)+len(nw.qpkts.free) != 0 {
		t.Fatalf("unpooled retire: %d live, %d+%d kept", nw.LiveSegments(), len(nw.segs.free), len(nw.qpkts.free))
	}
	SetSegmentPooling(true)
	s = nw.segs.get()
	s.Seq = 7
	nw.retireSeg(s)
	if s.Seq != 0 || len(nw.segs.free) != 1 {
		t.Fatalf("pooled retire: Seq=%d, %d on the free list", s.Seq, len(nw.segs.free))
	}
}
