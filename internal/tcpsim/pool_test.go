package tcpsim

import (
	"reflect"
	"testing"
	"time"

	"spdier/internal/netem"
	"spdier/internal/sim"
)

// TestFreeListBalancesAcrossTransports runs TCP and QUIC pairs over one
// lossy, duplicating path and requires every segment and packet handed
// out to have been retired once the network is quiet.
func TestFreeListBalancesAcrossTransports(t *testing.T) {
	loop := sim.NewLoop()
	link := netem.LinkConfig{BandwidthBPS: 3_000_000, Delay: 20 * time.Millisecond, QueueBytes: 6 << 10, LossRate: 0.02}
	cfg := netem.PathConfig{Up: link, Down: link}.WithImpairments(netem.Impairments{ReorderProb: 0.03, DupProb: 0.05})
	nw := NewNetwork(loop, netem.NewPath(loop, cfg, sim.NewRNG(5), nil))

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
	down := nw.Path().BtoA.Stats()
	if down.DroppedQueue == 0 || down.Duplicated == 0 {
		t.Fatalf("the drop and duplicate paths were not exercised: %+v", down)
	}
}

// TestRecycledUnitKeepsOnlyItsSliceCapacity: a unit recycled and retired
// is the unit that comes back from the free list, zero in every field,
// with the backing array of its SACK blocks or ACK ranges and nothing
// else.
func TestRecycledUnitKeepsOnlyItsSliceCapacity(t *testing.T) {
	peer := &Conn{}
	var segs freeList[Segment]
	s := segs.get()
	*s = Segment{to: peer, From: "x", Flags: flagACK, Seq: 1, Len: 2, Ack: 3, Wnd: 4, Retx: true, Dsack: true,
		Delayed: true, Sack: append(make([][2]uint64, 0, 4), [2]uint64{5, 6}), TSVal: 7, TSEcr: 8, CtrlLen: 9}
	s.recycle()
	segs.put(s)
	if got := segs.get(); got != s || len(got.Sack) != 0 || cap(got.Sack) != 4 {
		t.Fatalf("recycled segment: same=%v len(Sack)=%d cap(Sack)=%d, want true, 0, 4", got == s, len(got.Sack), cap(got.Sack))
	}
	s.Sack = nil
	if !reflect.DeepEqual(*s, Segment{}) {
		t.Fatalf("recycled segment kept state: %+v", *s)
	}

	qpeer := &QUICConn{}
	var pkts freeList[QUICPacket]
	p := pkts.get()
	*p = QUICPacket{to: qpeer, From: "x", PN: 1, StreamID: 2, Offset: 3, Len: 4, Fin: true, Hs: 1, CtrlLen: 5,
		Ack: true, AckLargest: 6, AckRanges: append(make([][2]uint64, 0, 8), [2]uint64{7, 8})}
	p.recycle()
	pkts.put(p)
	if got := pkts.get(); got != p || len(got.AckRanges) != 0 || cap(got.AckRanges) != 8 {
		t.Fatalf("recycled packet: same=%v len=%d cap=%d, want true, 0, 8", got == p, len(got.AckRanges), cap(got.AckRanges))
	}
	p.AckRanges = nil
	if !reflect.DeepEqual(*p, QUICPacket{}) {
		t.Fatalf("recycled packet kept state: %+v", *p)
	}
	if segs.live != 1 || pkts.live != 1 {
		t.Fatalf("live counts %d/%d with one unit of each handed out", segs.live, pkts.live)
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
