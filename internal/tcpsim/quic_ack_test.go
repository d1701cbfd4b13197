package tcpsim

import (
	"fmt"
	"math"
	"slices"
	"testing"
	"time"

	"spdier/internal/netem"
	"spdier/internal/sim"
)

// The ACK resolution quic.go shipped with until the merge-walk replaced
// it, kept verbatim as the oracle: every record of the flight tested
// against every range, and a whole-flight scan per acknowledged packet
// for its copies and originals.

func ackRangesContain(p *QUICPacket, pn uint64) bool {
	for _, r := range p.AckRanges {
		if pn >= r[0] && pn < r[1] {
			return true
		}
	}
	return false
}

func (q *QUICConn) refResolveAck(p *QUICPacket) (newlyAcked int, largestNew *qSent) {
	fl := q.flight()
	for i := range fl {
		e := &fl[i]
		if e.acked || !ackRangesContain(p, e.pn) {
			continue
		}
		if e.lost {
			e.acked = true
			q.SpuriousRetx++
			q.probe(EvSpurious, q.bytesInFlight)
			q.undoCongestionEvent()
			continue
		}
		e.acked = true
		q.bytesInFlight -= e.length
		newlyAcked++
		if largestNew == nil || e.pn > largestNew.pn {
			largestNew = e
		}
		if e.hasOrig {
			q.refResolveOriginal(e.origPN)
		} else {
			q.refCheckSpuriousProbe(e.pn, fl)
		}
	}
	return newlyAcked, largestNew
}

func (q *QUICConn) refResolveOriginal(pn uint64) {
	fl := q.flight()
	for {
		var e *qSent
		for i := range fl {
			if fl[i].pn == pn {
				e = &fl[i]
				break
			}
		}
		if e == nil || e.acked {
			return
		}
		e.acked = true
		if !e.lost {
			q.bytesInFlight -= e.length
		}
		if !e.hasOrig {
			return
		}
		pn = e.origPN
	}
}

func (q *QUICConn) refCheckSpuriousProbe(pn uint64, fl []qSent) {
	for i := range fl {
		r := &fl[i]
		if r.hasOrig && r.origPN == pn && !r.acked {
			q.SpuriousRetx++
			q.probe(EvSpurious, q.bytesInFlight)
			q.undoCongestionEvent()
			return
		}
	}
}

func (q *QUICConn) refAckedRetxOf(pn uint64) bool {
	fl := q.flight()
	for i := range fl {
		if fl[i].hasOrig && fl[i].origPN == pn && fl[i].acked {
			return true
		}
	}
	return false
}

// sampleLog is a Probe that keeps everything, so two endpoints' event
// streams can be compared sample by sample.
type sampleLog []ProbeSample

func (l *sampleLog) Sample(s ProbeSample) { *l = append(*l, s) }

// randomFlight builds a sender whose deque holds up to maxLen records in
// every state handleAck can meet: in flight, declared lost, resolved but
// not yet retired, and copies whose originals are in the deque, retired,
// or themselves copies. Packet numbers ascend with gaps (ACK packets
// consume numbers too) and a retired prefix leaves the deque's head
// above zero. The same seed gives the same sender, so a pair can be
// resolved by the merge-walk and by the oracle and then compared.
func randomFlight(seed uint64, maxLen int) (*QUICConn, *sampleLog) {
	rng := sim.NewRNG(seed)
	log := &sampleLog{}
	cfg := DefaultConfig()
	cfg.Probe = log
	q := newQUICConn(sim.NewLoop(), cfg, "flight", "d", true)
	q.cwnd, q.ssthresh = 5, 10
	q.undoValid = rng.Intn(2) == 0
	q.undoCwnd, q.undoSsthresh = 20, 40

	n := rng.Intn(maxLen + 1)
	retire := 0
	if n > 0 {
		retire = rng.Intn(n/4 + 1)
	}
	pn := uint64(rng.Intn(40))
	var pns []uint64
	for k := 0; k < n; k++ {
		pn += 1 + uint64(rng.Intn(3))
		s := qSent{pn: pn, streamID: uint32(rng.Intn(4)), offset: uint64(k) * 1380, length: 1 + rng.Intn(1380), sentAt: sim.Time(k)}
		if len(pns) > 0 && rng.Intn(5) == 0 {
			s.hasOrig = true
			s.origPN = pns[rng.Intn(len(pns))]
			if rng.Intn(4) == 0 {
				s.origPN = uint64(rng.Intn(int(pn))) // possibly no record at all
			}
		}
		switch {
		case k < retire:
			s.acked = true
		case rng.Intn(6) == 0:
			s.acked = true
			s.lost = rng.Intn(2) == 0
		case rng.Intn(6) == 0:
			s.lost = true
		}
		q.pushSent(s)
		if !s.acked && !s.lost {
			q.bytesInFlight += s.length
		}
		pns = append(pns, pn)
	}
	q.nextPN = pn + 1
	q.compactFlight()
	return q, log
}

// randomRanges returns up to n half-open spans, ascending with a hole
// before each, scattered over [lo, hi].
func randomRanges(rng *sim.RNG, n int, lo, hi uint64) [][2]uint64 {
	var out [][2]uint64
	step := int(hi-lo)/(n+1) + 1
	cur := lo
	for len(out) < n && cur <= hi {
		start := cur + uint64(rng.Intn(step))
		end := start + 1 + uint64(rng.Intn(step))
		out = append(out, [2]uint64{start, end})
		cur = end + 1 + uint64(rng.Intn(step))
	}
	return out
}

// TestPropertyAckMergeWalkMatchesScan holds the one-pass ACK resolution
// to the flight × ranges scan it replaced: over random flights and range
// sets both leave the same records, counters, windows and probe stream,
// and return the same count and largest packet. The named shapes are the
// ones a merge-walk can get wrong at its edges.
func TestPropertyAckMergeWalkMatchesScan(t *testing.T) {
	type shape struct {
		name   string
		ranges func(rng *sim.RNG, head, tail uint64) [][2]uint64
	}
	shapes := []shape{
		{"none", func(*sim.RNG, uint64, uint64) [][2]uint64 { return nil }},
		{"below-head", func(_ *sim.RNG, head, _ uint64) [][2]uint64 {
			if head < 4 {
				return nil
			}
			return [][2]uint64{{0, head/2 + 1}, {head/2 + 2, head}}
		}},
		{"above-tail", func(_ *sim.RNG, _, tail uint64) [][2]uint64 {
			return [][2]uint64{{tail + 1, tail + 10}, {tail + 20, tail + 22}}
		}},
		{"everything", func(_ *sim.RNG, _, tail uint64) [][2]uint64 { return [][2]uint64{{0, tail + 6}} }},
		{"retired-and-head", func(_ *sim.RNG, head, tail uint64) [][2]uint64 {
			return [][2]uint64{{0, head + (tail-head)/3 + 1}}
		}},
		{"few", func(rng *sim.RNG, head, tail uint64) [][2]uint64 {
			return randomRanges(rng, 1+rng.Intn(4), head-min(head, 5), tail+5)
		}},
		{"32", func(rng *sim.RNG, head, tail uint64) [][2]uint64 {
			return randomRanges(rng, 32, head-min(head, 40), tail+5)
		}},
	}
	for _, sh := range shapes {
		for seed := uint64(1); seed <= 120; seed++ {
			got, gotLog := randomFlight(seed, 300)
			want, wantLog := randomFlight(seed, 300)
			var head, tail uint64 = 50, 60
			if fl := got.flight(); len(fl) > 0 {
				head, tail = fl[0].pn, fl[len(fl)-1].pn
			}
			p := &QUICPacket{Ack: true, AckRanges: sh.ranges(sim.NewRNG(seed^0xacc), head, tail)}
			got.checkSpans("ack-ranges", "generator", p.AckRanges, 0) // the generator must keep the walk's precondition
			// The same ACK twice: a wire duplicate must find nothing left.
			for round := 0; round < 2; round++ {
				where := fmt.Sprintf("%s seed %d round %d", sh.name, seed, round)
				gotN, gotLargest := got.resolveAck(p)
				wantN, wantLargest := want.refResolveAck(p)
				if gotN != wantN || (gotLargest == nil) != (wantLargest == nil) ||
					(gotLargest != nil && gotLargest.pn != wantLargest.pn) {
					t.Fatalf("%s: resolved %d largest %v, oracle %d largest %v", where, gotN, gotLargest, wantN, wantLargest)
				}
				if round == 1 && gotN != 0 {
					t.Fatalf("%s: duplicate ACK resolved %d records", where, gotN)
				}
				if !slices.Equal(got.flight(), want.flight()) {
					t.Fatalf("%s: records differ\n got %+v\nwant %+v", where, got.flight(), want.flight())
				}
				if got.bytesInFlight != want.bytesInFlight || got.SpuriousRetx != want.SpuriousRetx ||
					got.cwnd != want.cwnd || got.ssthresh != want.ssthresh || got.undoValid != want.undoValid {
					t.Fatalf("%s: state differs: bytes %d/%d spurious %d/%d cwnd %v/%v ssthresh %v/%v undo %v/%v", where,
						got.bytesInFlight, want.bytesInFlight, got.SpuriousRetx, want.SpuriousRetx,
						got.cwnd, want.cwnd, got.ssthresh, want.ssthresh, got.undoValid, want.undoValid)
				}
				if !slices.Equal(*gotLog, *wantLog) {
					t.Fatalf("%s: probe streams differ: %d samples against %d", where, len(*gotLog), len(*wantLog))
				}
				got.checkSender(where)
				for _, e := range got.flight() {
					if got.ackedRetxOf(e.pn) != want.refAckedRetxOf(e.pn) {
						t.Fatalf("%s: ackedRetxOf(%d) = %v, oracle disagrees", where, e.pn, got.ackedRetxOf(e.pn))
					}
				}
			}
			got.compactFlight()
			got.checkSender(sh.name + " after compaction")
		}
	}
}

// quicImpairedPath is a 3G-like path that drops in bursts, reorders and
// duplicates in both directions, so data, ACKs and retransmissions all
// meet every impairment.
func quicImpairedPath(rng *sim.RNG) netem.PathConfig {
	im := netem.Impairments{
		GEGoodToBad: 0.01 * float64(rng.Intn(3)), GEBadToGood: 0.3, GELossBad: 0.5,
		ReorderProb: 0.02 * float64(rng.Intn(4)),
		DupProb:     0.02 * float64(rng.Intn(4)),
	}
	loss := float64(rng.Intn(5)) / 100
	return netem.PathConfig{
		Up: netem.LinkConfig{BandwidthBPS: 2_000_000, Delay: 50 * time.Millisecond, Jitter: 5 * time.Millisecond,
			QueueBytes: 128 << 10, LossRate: loss / 2, Impair: im},
		Down: netem.LinkConfig{BandwidthBPS: 6_000_000, Delay: 50 * time.Millisecond, Jitter: 5 * time.Millisecond,
			QueueBytes: []int{30_000, 256_000}[rng.Intn(2)], LossRate: loss, Impair: im},
	}
}

// TestPropertyQUICLossReorderDup: for any seed, under random loss, burst
// loss, reordering and duplication, every stream byte the server writes
// is delivered exactly once and the sender drains, with the QUIC
// invariant checker auditing every ACK, probe timeout and loss pass; and
// the ledger of a run does not depend on whether packets are pooled.
func TestPropertyQUICLossReorderDup(t *testing.T) {
	type outcome struct {
		delivered     [3]int
		retx, spur    int
		serverSent    int
		end           sim.Time
		live, drained int
	}
	run := func(seed uint64) (outcome, int) {
		loop := sim.NewLoop()
		rng := sim.NewRNG(seed ^ 0x9e37)
		path := netem.NewPath(loop, quicImpairedPath(rng), sim.NewRNG(seed), nil)
		nw := NewNetwork(loop, path)
		cfg := DefaultConfig()
		client, server := nw.NewQUICPair(cfg, cfg, "prop", "d")
		var o outcome
		client.OnStreamDeliver(func(sid uint32, n int) { o.delivered[sid] += n })
		total := 0
		client.OnEstablished(func() {
			client.WriteStream(0, 400) // the request wakes the server side
			at := loop.Now()
			for i := 0; i < 2+rng.Intn(4); i++ {
				sid, n := uint32(rng.Intn(3)), 20_000+rng.Intn(200_000)
				total += n
				at = at.Add(time.Duration(rng.Intn(6000)) * time.Millisecond)
				loop.At(at, func() { server.WriteStream(sid, n) })
			}
		})
		client.Connect()
		loop.Run(15 * sim.Minute)
		o.retx, o.spur = server.Retransmits, server.SpuriousRetx
		o.serverSent = int(server.BytesSentApp)
		o.end = loop.Now()
		o.live = nw.LiveSegments()
		o.drained = server.BufferedBytes()
		return o, total
	}
	defer SetSegmentPooling(true)
	retx, spurious := 0, 0
	for seed := uint64(1); seed <= 60; seed++ {
		SetSegmentPooling(true)
		pooled, total := run(seed)
		SetSegmentPooling(false)
		unpooled, _ := run(seed)
		if pooled != unpooled {
			t.Fatalf("seed %d: pooled %+v != unpooled %+v", seed, pooled, unpooled)
		}
		if got := pooled.delivered[0] + pooled.delivered[1] + pooled.delivered[2]; got != total || pooled.serverSent != total {
			t.Fatalf("seed %d: delivered %d of %d written (%d accepted)", seed, got, total, pooled.serverSent)
		}
		if pooled.drained != 0 || pooled.live != 0 {
			t.Fatalf("seed %d: %d bytes still queued, %d packets still live", seed, pooled.drained, pooled.live)
		}
		retx += pooled.retx
		spurious += pooled.spur
	}
	if retx == 0 || spurious == 0 {
		t.Fatalf("the impairments never bit: %d retransmissions, %d spurious over all seeds", retx, spurious)
	}
}

// TestInvariantCatchesQUICCorruption corrupts each quantity the QUIC
// checker audits, one at a time, and asserts the next ACK reports it.
func TestInvariantCatchesQUICCorruption(t *testing.T) {
	cases := []struct {
		rule    string
		corrupt func(q *QUICConn)
	}{
		{"bytes-in-flight", func(q *QUICConn) { q.bytesInFlight += 7 }},
		{"copy-count", func(q *QUICConn) { q.sentCopies++ }},
		{"sent-order", func(q *QUICConn) { fl := q.flight(); fl[1].pn = fl[0].pn }},
		{"cwnd-range", func(q *QUICConn) { q.cwnd = math.NaN() }},
		{"ssthresh-min", func(q *QUICConn) { q.ssthresh = 1 }},
	}
	for _, tc := range cases {
		got := captureViolations(t)
		loop, nw := newQuicTestNet(t, quietWiFi())
		cfg := DefaultConfig()
		client, server := nw.NewQUICPair(cfg, cfg, "inv", "d")
		client.Connect()
		loop.RunUntilIdle()
		client.WriteStream(1, 40_000)
		if !server.Established() || len(client.flight()) < 2 {
			t.Fatalf("%s: no flight to corrupt", tc.rule)
		}
		tc.corrupt(client)
		loop.RunUntilIdle()
		if !slices.ContainsFunc(*got, func(v InvariantViolation) bool { return v.Rule == tc.rule && v.Conn == "inv:c" }) {
			t.Errorf("%s corruption not caught; violations: %s", tc.rule, rules(*got))
		}
	}
	// Unsorted ranges would make the merge-walk skip records the scan
	// found; the checker rejects them at the door. Touching ranges are
	// what a receiver that failed to merge a filled hole would send.
	q, _ := randomFlight(3, 50)
	for _, forged := range [][][2]uint64{{{10, 20}, {15, 30}}, {{1, 4}, {4, 7}}} {
		got := captureViolations(t)
		q.checkSpans("ack-ranges", "forged", forged, 0)
		if !slices.ContainsFunc(*got, func(v InvariantViolation) bool { return v.Rule == "ack-ranges" }) {
			t.Errorf("ACK ranges %v not caught; violations: %s", forged, rules(*got))
		}
	}
}

// TestInvariantCatchesInflightCountDrift corrupts the maintained
// pktsInFlight count and asserts the recount in checkSender reports it.
func TestInvariantCatchesInflightCountDrift(t *testing.T) {
	got := captureViolations(t)
	w, _, server := establishedPair(t, 5)
	server.Write(20 * 1380)
	w.loop.Run(w.loop.Now().Add(25 * time.Millisecond))
	server.inflCount++
	w.loop.RunUntilIdle()
	if !slices.ContainsFunc(*got, func(v InvariantViolation) bool { return v.Rule == "inflight-count" }) {
		t.Fatalf("count drift not caught; violations: %s", rules(*got))
	}
}
