package tcpsim

import (
	"fmt"
	"hash/fnv"
	"testing"
	"time"

	"spdier/internal/netem"
	"spdier/internal/sim"
)

// reuseWorld is a run of many short connections, opened one after
// another on a path that loses, duplicates and reorders, so that stale
// segments — wire duplicates, retransmissions the peer no longer needed,
// ACKs of ACKs — keep arriving after a pair is over.
type reuseWorld struct {
	w       *testWorld
	clients []*Conn // as NewConnPair returned them; a pointer repeats once a record is reused
	over    int     // pairs whose client got the server's FIN: both ends closed
	wire    []string
}

// reuseRun opens n connections, one every 100 ms, each carrying a 300-byte
// request and a 20 KB response. The client closes as soon as the response
// has landed on every other connection, and four seconds later, as a
// browser's idle socket does, on the rest; the server closes when the
// client's FIN arrives. So a pair is over both before the handshake's
// retry timer (InitialRTO, 3 s) has fired and after, and the segments
// still on the wire to it are all that holds it once the timer has. It
// runs the loop until nothing is left to fire.
func reuseRun(t *testing.T, n int) *reuseWorld {
	t.Helper()
	cfg := netem.PathConfig{
		Up:   netem.LinkConfig{BandwidthBPS: 2_000_000, Delay: 25 * time.Millisecond, QueueBytes: 64 << 10, LossRate: 0.01},
		Down: netem.LinkConfig{BandwidthBPS: 6_000_000, Delay: 25 * time.Millisecond, QueueBytes: 64 << 10, LossRate: 0.01},
	}.WithImpairments(netem.Impairments{ReorderProb: 0.05, ReorderDelay: 400 * time.Millisecond, DupProb: 0.08})
	r := &reuseWorld{w: newWorld(cfg, 3)}
	log := func(p netem.Payload, _ int) bool {
		s := p.(*Segment)
		r.wire = append(r.wire, fmt.Sprintf("%v %s %s", r.w.loop.Now(), s.From, kind(s)))
		return true
	}
	r.w.net.Path().AtoB.SetFilter(log)
	r.w.net.Path().BtoA.SetFilter(log)
	for i := 0; i < n; i++ {
		r.w.loop.After(time.Duration(i)*100*time.Millisecond, func() {
			client, server := r.w.net.NewConnPair(DefaultConfig(), DefaultConfig(), fmt.Sprintf("r%02d", i), "d")
			r.clients = append(r.clients, client)
			var asm StreamAssembler
			asm.Attach(client)
			linger := time.Duration(i%2) * 4 * time.Second
			asm.Expect(20<<10, sim.Func(func() { r.w.loop.After(linger, client.Close) }))
			client.OnEstablished(func() { client.Write(300) })
			client.OnClose(func() { r.over++ })
			server.OnDeliver(func(int) { server.Write(20 << 10) })
			server.OnClose(server.Close)
			client.Connect()
		})
	}
	r.w.loop.RunUntilIdle()
	if s := r.w.net.Path().BtoA.Stats(); s.Duplicated == 0 || s.DroppedLoss == 0 {
		t.Fatalf("impairments inert: %+v", s)
	}
	return r
}

// digest is what must not depend on where the records were: every
// segment each end put on the wire and when, what the run fired, and
// every endpoint's counters.
func (r *reuseWorld) digest() uint64 {
	h := fnv.New64a()
	for _, l := range r.wire {
		fmt.Fprintln(h, l)
	}
	fmt.Fprintln(h, r.w.loop.Fired(), r.over)
	for _, s := range r.w.net.Conns() {
		fmt.Fprintf(h, "%+v\n", s)
	}
	return h.Sum64()
}

// TestFinishRunsOncePerPair: finish retires a pair once, the first time
// it finds the connection over, however many stale segments reach the
// pair after that (it used to run its whole body again on every one of
// them); and every pair it retired has given its record back once the
// run is idle — no segment is left on the wire to reach it, and no timer.
func TestFinishRunsOncePerPair(t *testing.T) {
	const conns = 150
	r := reuseRun(t, conns)
	nw := r.w.net
	if r.over < conns/2 {
		t.Fatalf("only %d of %d connections were closed by both ends", r.over, conns)
	}
	if nw.finished != r.over {
		t.Fatalf("finish retired %d pairs; %d connections were over", nw.finished, r.over)
	}
	if n := nw.HeldPairs(); n != conns-r.over {
		t.Fatalf("%d pair records held at the end, want the %d pairs that never finished", n, conns-r.over)
	}
	if n := nw.LiveSegments(); n != 0 {
		t.Fatalf("%d segments outstanding after the run", n)
	}
	for _, p := range nw.held {
		for _, c := range [...]*Conn{&p.client, &p.server} {
			if c.over || c.wireIn != 0 || c.timerPending() {
				t.Fatalf("%s held, over %v, %d segments addressed to it, a timer pending %v", c.id, c.over, c.wireIn, c.timerPending())
			}
		}
	}
}

// TestPairReuseMatchesUnpooled: with pooling on, the records of pairs
// that are over are reused within the run; with it off, none is. The
// two runs must be the same run. A record given back while a segment
// addressed to it is still on the wire, or a timer of it pending, would
// hand that segment or timer to the connection that reuses the record,
// and the wire, the counters or what fired would differ.
func TestPairReuseMatchesUnpooled(t *testing.T) {
	const conns = 150
	defer SetSegmentPooling(true)
	digests := map[bool]uint64{}
	for _, pooling := range []bool{false, true} {
		SetSegmentPooling(pooling)
		r := reuseRun(t, conns)
		records := map[*Conn]bool{}
		for _, c := range r.clients {
			records[c] = true
		}
		t.Logf("pooling %v: %d connections on %d pair records, %d over", pooling, conns, len(records), r.over)
		if pooling && len(records) > conns/2 || !pooling && len(records) != conns {
			t.Fatalf("pooling %v: %d connections on %d pair records", pooling, conns, len(records))
		}
		if n := len(r.w.net.Conns()); n != 2*conns {
			t.Fatalf("pooling %v: %d endpoints listed for %d connections", pooling, n, conns)
		}
		digests[pooling] = r.digest()
	}
	if digests[true] != digests[false] {
		t.Fatalf("the run reusing pair records differs from the one that does not: %#x vs %#x", digests[true], digests[false])
	}
}
