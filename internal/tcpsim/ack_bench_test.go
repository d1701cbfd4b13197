package tcpsim

import (
	"testing"

	"spdier/internal/netem"
	"spdier/internal/sim"
)

// Per-ACK work, the tcpsim row of the cost ledger: what one delayed ACK
// — two packets newly acknowledged, two sent in their place — costs the
// sender at a given flight, with as many ACK ranges or SACK blocks as
// the receiver reports when it is missing packets. The senders hold
// their flight on a path that drops everything, so an operation is the
// ACK handler and the two transmissions it releases, nothing else.

// blackholeNet is a network whose links accept nothing: every transmit
// retires its packet straight back to the pool.
func blackholeNet() *Network {
	loop := sim.NewLoop()
	path := netem.NewPath(loop, quietWiFi(), sim.NewRNG(1), nil)
	drop := func(netem.Payload, int) bool { return false }
	path.AtoB.SetFilter(drop)
	path.BtoA.SetFilter(drop)
	return NewNetwork(loop, path)
}

// quicAckLoad returns one operation of the QUIC per-ACK load: the next
// ACK of a sender holding `flight` packets. With more than one range,
// all but the last lie below the flight — packet numbers are never
// re-sent, so every hole a receiver has ever seen stays in its ACKs (up
// to its cap of 32) long after the sender retired those records.
func quicAckLoad(flight, ranges int) func() {
	nw := blackholeNet()
	q, _ := nw.NewQUICPair(DefaultConfig(), DefaultConfig(), "ack", "d")
	q.state = stEstablished
	q.cwnd, q.ssthresh = float64(flight), float64(flight)
	next := uint64(3 * ranges) // first packet number not yet acknowledged
	q.nextPN = next
	q.WriteStream(1, 1<<40)

	ack := &QUICPacket{Ack: true}
	for i := 0; i < ranges-1; i++ {
		ack.AckRanges = append(ack.AckRanges, [2]uint64{uint64(3 * i), uint64(3*i + 2)})
	}
	ack.AckRanges = append(ack.AckRanges, [2]uint64{})
	return func() {
		ack.AckRanges[ranges-1] = [2]uint64{next, next + 2}
		ack.AckLargest = next + 1
		next += 2
		q.cwnd = float64(flight) // hold the flight: window growth is not what is priced
		q.handleAck(ack)
	}
}

// connAckLoad returns one operation of the TCP per-ACK load: the next
// cumulative ACK of a sender with a window of `flight` segments,
// carrying `blocks` SACK blocks for single segments the receiver holds
// above holes (the sender stays in the open state: holes are reordering
// until three duplicates say otherwise).
func connAckLoad(flight, blocks int) func() {
	nw := blackholeNet()
	_, c := nw.NewConnPair(DefaultConfig(), DefaultConfig(), "ack", "d")
	mss := uint64(c.cfg.MSS)
	c.state = stEstablished
	c.peerWnd = 1 << 30
	c.cwnd, c.ssthresh = float64(flight), float64(flight)
	c.Write(1 << 40)

	ack := &Segment{Flags: flagACK, Wnd: 1 << 30}
	ack.Sack = make([][2]uint64, blocks)
	return func() {
		ack.Ack = c.sndUna + 2*mss
		for j := range ack.Sack {
			seq := ack.Ack + uint64(2+3*j)*mss
			ack.Sack[j] = [2]uint64{seq, seq + mss}
		}
		c.cwnd = float64(flight)
		c.receiveAck(ack)
	}
}

// sackGenLoad returns one operation of the receiver's per-ACK load: a
// receiver holding `buffered` segments above the hole at its cumulative
// point, single segments with a hole between each two, takes one data
// segment. Operations alternate: a segment lands above the buffer's top
// and is answered at once by a duplicate ACK whose SACK option is read
// off the buffer; then the lowest hole fills, which drains the segment
// above it — holding the buffer at its depth — and arms the delayed ACK
// the next duplicate releases. The segments carry no ACK of their own,
// so that only the receiver is priced.
func sackGenLoad(buffered int) func() {
	nw := blackholeNet()
	c, _ := nw.NewConnPair(DefaultConfig(), DefaultConfig(), "sack", "d")
	c.state = stEstablished
	mss := uint64(c.cfg.MSS)
	arrive := func(k uint64) {
		seg := nw.segs.get()
		seg.Seq, seg.Len = k*mss, int(mss)
		c.handleSegment(seg)
		nw.retireSeg(seg)
	}
	// Segment k holds bytes [k·mss, (k+1)·mss): the odd ones are buffered.
	var hole, top uint64 = 0, 2*uint64(buffered) - 1
	for k := uint64(1); k <= top; k += 2 {
		arrive(k)
	}
	fill := false
	return func() {
		if fill {
			arrive(hole)
			hole += 2
		} else {
			top += 2
			arrive(top)
		}
		fill = !fill
	}
}

var perAckLoads = []struct {
	transport, shape string
	load             func() func()
}{
	{"quic", "flight=16/ranges=1", func() func() { return quicAckLoad(16, 1) }},
	{"quic", "flight=16/ranges=32", func() func() { return quicAckLoad(16, 32) }},
	{"quic", "flight=256/ranges=1", func() func() { return quicAckLoad(256, 1) }},
	{"quic", "flight=256/ranges=32", func() func() { return quicAckLoad(256, 32) }},
	{"conn", "flight=16/sack=1", func() func() { return connAckLoad(16, 1) }},
	{"conn", "flight=16/sack=4", func() func() { return connAckLoad(16, 4) }},
	{"conn", "flight=256/sack=1", func() func() { return connAckLoad(256, 1) }},
	{"conn", "flight=256/sack=4", func() func() { return connAckLoad(256, 4) }},
	{"receiver", "buffered=16", func() func() { return sackGenLoad(16) }},
	{"receiver", "buffered=64", func() func() { return sackGenLoad(64) }},
	{"receiver", "buffered=256", func() func() { return sackGenLoad(256) }},
}

// warmAckLoad runs op until the deque, the packet pool and the event
// slots have reached their steady sizes, then returns its allocations
// per ACK, which must be zero.
func warmAckLoad(op func()) float64 {
	for i := 0; i < 2000; i++ {
		op()
	}
	return testing.AllocsPerRun(500, op)
}

// withoutInvariants runs fn on the production path: the package's tests
// keep the checker on, and its recounts are the O(flight) walks these
// loads exist to show gone.
func withoutInvariants(fn func()) {
	DisableInvariants()
	defer EnableInvariants(nil)
	fn()
}

// TestPerAckAllocations is the per-ACK guardrail beside the round-trip
// one: a warm sender handles an ACK, and sends what it releases, without
// allocating — at either flight, with one range or block or with the
// most a receiver reports — and a warm receiver takes a segment and
// answers it without allocating, at any depth of out-of-order buffer.
// The loads run once more with the checker on, so the shapes the
// benchmarks time are also known to keep every invariant.
func TestPerAckAllocations(t *testing.T) {
	for _, l := range perAckLoads {
		withoutInvariants(func() {
			if allocs := warmAckLoad(l.load()); allocs != 0 {
				t.Errorf("%s/%s: %.1f allocations per operation, want 0", l.transport, l.shape, allocs)
			}
		})
		op := l.load()
		for i := 0; i < 600; i++ {
			op()
		}
	}
}

// benchmarkAck times the loads of one transport (or the receiver) per
// operation, in the given unit, after asserting that a warm one does not
// allocate.
func benchmarkAck(b *testing.B, transport, unit string) {
	for _, l := range perAckLoads {
		if l.transport != transport {
			continue
		}
		b.Run(l.shape, func(b *testing.B) {
			withoutInvariants(func() {
				op := l.load()
				if allocs := warmAckLoad(op); allocs != 0 {
					b.Fatalf("%.1f allocations per %s, want 0", allocs, unit)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					op()
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/"+unit)
			})
		})
	}
}

// BenchmarkQUICAck times QUICConn.handleAck at flight ∈ {16, 256} ×
// ranges ∈ {1, 32}:
//
//	go test -run '^$' -bench 'BenchmarkQUICAck|BenchmarkConnAck|BenchmarkConnSackGen' ./internal/tcpsim/
func BenchmarkQUICAck(b *testing.B) { benchmarkAck(b, "quic", "ACK") }

// BenchmarkConnAck times Conn.receiveAck at flight ∈ {16, 256} × SACK
// blocks ∈ {1, 4}.
func BenchmarkConnAck(b *testing.B) { benchmarkAck(b, "conn", "ACK") }

// BenchmarkConnSackGen times the receiver's side of the same exchange:
// one data segment taken into an out-of-order buffer of 16, 64 or 256
// segments, and the SACK-bearing ACK it draws (sackGenLoad).
func BenchmarkConnSackGen(b *testing.B) { benchmarkAck(b, "receiver", "arrival") }
