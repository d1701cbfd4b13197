package tcpsim

import (
	"fmt"
	"strings"
	"testing"

	"spdier/internal/netem"
	"spdier/internal/sim"
)

// wireLog is a filter on both directions of a path that writes down what
// each endpoint puts on the wire and when, and refuses the first `drops`
// segments its lose function picks.
type wireLog struct {
	loop  *sim.Loop
	drops int
	lose  func(*Segment) bool
	lines []string
}

func kind(s *Segment) string {
	switch {
	case s.Flags&flagSYN != 0 && s.Flags&flagACK != 0:
		return "synack"
	case s.Flags&flagSYN != 0:
		return "syn"
	case s.Flags&flagFIN != 0:
		return "fin"
	case s.Len > 0:
		return fmt.Sprintf("data[%d+%d]", s.Seq, s.Len)
	default:
		return fmt.Sprintf("ack[%d]", s.Ack)
	}
}

func (l *wireLog) filter(p netem.Payload, _ int) bool {
	s := p.(*Segment)
	line := fmt.Sprintf("%v %s %s", l.loop.Now(), s.From, kind(s))
	if l.lose != nil && l.drops > 0 && l.lose(s) {
		l.drops--
		l.lines = append(l.lines, line+" lost")
		return false
	}
	l.lines = append(l.lines, line)
	return true
}

func (l *wireLog) watch(w *testWorld) {
	w.net.Path().AtoB.SetFilter(l.filter)
	w.net.Path().BtoA.SetFilter(l.filter)
}

// TestHandshakeLossInstants pins the handshake's retransmission timers:
// every segment either end sends and when, with the SYN, the SYN-ACK or
// the handshake ACK lost once and twice, and what the run had fired when
// it went idle — the retry timers that are left pending once the
// connection is up fire too, and do nothing. The client is silent (it
// never writes), so a lost handshake ACK leaves the server's SYN-ACK
// timer as its only way out of SYN_RCVD. Recorded from the closures that
// carried these timers before they became handlers of the endpoint.
func TestHandshakeLossInstants(t *testing.T) {
	isSYN := func(s *Segment) bool { return s.Flags&flagSYN != 0 && s.Flags&flagACK == 0 }
	isSYNACK := func(s *Segment) bool { return s.Flags&flagSYN != 0 && s.Flags&flagACK != 0 }
	isHandshakeACK := func(s *Segment) bool { return s.Flags == flagACK && s.Len == 0 && s.From == "hs:c" }
	cases := []struct {
		name  string
		lose  func(*Segment) bool
		drops int
		want  string
	}{
		{"syn-lost-1", isSYN, 1,
			"0s hs:c syn lost; 3s hs:c syn; 3.020032s hs:s synack; 3.040064s hs:c ack[0]; 3.040064s client up; 3.060096s server up; idle at 6.020032s, fired 9"},
		{"syn-lost-2", isSYN, 2,
			"0s hs:c syn lost; 3s hs:c syn lost; 6s hs:c syn; 6.020032s hs:s synack; 6.040064s hs:c ack[0]; 6.040064s client up; 6.060096s server up; idle at 9.020032s, fired 10"},
		{"synack-lost-1", isSYNACK, 1,
			"0s hs:c syn; 20.032ms hs:s synack lost; 3s hs:c syn; 3.020032s hs:s synack; 3.020032s hs:s synack; 3.040064s hs:c ack[0]; 3.040064s client up; 3.040096s hs:c ack[0]; 3.060096s server up; idle at 6.020032s, fired 16"},
		{"synack-lost-2", isSYNACK, 2,
			"0s hs:c syn; 20.032ms hs:s synack lost; 3s hs:c syn; 3.020032s hs:s synack lost; 3.020032s hs:s synack; 3.040064s hs:c ack[0]; 3.040064s client up; 3.060096s server up; idle at 6.020032s, fired 12"},
		{"ack-lost-1", isHandshakeACK, 1,
			"0s hs:c syn; 20.032ms hs:s synack; 40.064ms hs:c ack[0] lost; 40.064ms client up; 3.020032s hs:s synack; 3.040064s hs:c ack[0]; 3.060096s server up; idle at 6.020032s, fired 11"},
		{"ack-lost-2", isHandshakeACK, 2,
			"0s hs:c syn; 20.032ms hs:s synack; 40.064ms hs:c ack[0] lost; 40.064ms client up; 3.020032s hs:s synack; 3.040064s hs:c ack[0] lost; 6.020032s hs:s synack; 6.040064s hs:c ack[0]; 6.060096s server up; idle at 9.020032s, fired 14"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := newWorld(cleanPath(), 1)
			log := &wireLog{loop: w.loop, drops: tc.drops, lose: tc.lose}
			log.watch(w)
			client, server := w.net.NewConnPair(DefaultConfig(), DefaultConfig(), "hs", "d")
			client.OnEstablished(func() { log.lines = append(log.lines, fmt.Sprintf("%v client up", w.loop.Now())) })
			server.OnEstablished(func() { log.lines = append(log.lines, fmt.Sprintf("%v server up", w.loop.Now())) })
			client.Connect()
			end := w.loop.RunUntilIdle()
			if !client.Established() || !server.Established() {
				t.Fatalf("handshake did not complete: %v / %v", client, server)
			}
			got := strings.Join(log.lines, "; ") + fmt.Sprintf("; idle at %v, fired %d", end, w.loop.Fired())
			if got != tc.want {
				t.Errorf("handshake with %s:\n got %q\nwant %q", tc.name, got, tc.want)
			}
			if n := w.net.LiveSegments(); n != 0 {
				t.Errorf("%d segments outstanding after the run", n)
			}
		})
	}
}

// finishedPair opens a connection, moves a request and a response over
// it, closes both ends and runs the loop idle: both ends then hold the
// other's FIN and have nothing queued or unacknowledged.
func finishedPair(t *testing.T) (w *testWorld, log *wireLog, client, server *Conn) {
	t.Helper()
	w = newWorld(cleanPath(), 1)
	log = &wireLog{loop: w.loop}
	log.watch(w)
	client, server = w.net.NewConnPair(DefaultConfig(), DefaultConfig(), "fin", "d")
	server.OnDeliver(func(int) { server.Write(5000) })
	client.OnEstablished(func() { client.Write(400) })
	client.Connect()
	w.loop.Run(5 * sim.Second)
	client.Close()
	server.Close()
	w.loop.RunUntilIdle()
	if !client.Drained() || !server.Drained() || !client.finRcvd || !server.finRcvd {
		t.Fatalf("pair did not finish: %v / %v", client, server)
	}
	return w, log, client, server
}

// lateArrivals is what a finished pair does with a stale retransmission
// of the response's first segment and then a second copy of the server's
// FIN, both arriving at the client a second after the run went idle: the
// wire log from the close on, the client's counters and both summaries.
func lateArrivals(t *testing.T) string {
	t.Helper()
	w, log, client, server := finishedPair(t)
	closing := 0
	for i, l := range log.lines {
		if strings.HasSuffix(l, " fin") {
			closing = i
			break
		}
	}
	inject := func(fill func(*Segment)) {
		seg := w.net.segs.get()
		fill(seg)
		seg.From, seg.to = server.id, client
		client.wireIn++ // as transmit counts what it puts on the wire
		client.handleSegment(seg)
		w.net.retireSeg(seg)
	}
	w.loop.After(sim.Second.Duration(), func() {
		inject(func(s *Segment) {
			s.Flags, s.Seq, s.Len, s.Retx = flagACK, 0, 1380, true
			s.Ack, s.Wnd, s.TSVal = server.rcvNxt, server.recvWindow(), w.loop.Now()
		})
		inject(func(s *Segment) {
			s.Flags, s.Ack, s.Wnd = flagFIN|flagACK, server.rcvNxt, server.recvWindow()
		})
	})
	end := w.loop.RunUntilIdle()
	if n := w.net.LiveSegments(); n != 0 {
		t.Errorf("%d segments outstanding after the run", n)
	}
	return strings.Join(log.lines[closing:], "; ") +
		fmt.Sprintf("; idle at %v, fired %d; client spurious %d rcvd %d retx %d; server spurious %d rcvd %d retx %d; %v; %v",
			end, w.loop.Fired(), client.SpuriousArrivals, client.BytesRcvdApp, client.Retransmits,
			server.SpuriousArrivals, server.BytesRcvdApp, server.Retransmits, client, server)
}

// TestFinishedPairKeepsCountersOnly: once both ends have closed, drained
// and hold each other's FIN, neither Conn leads to anything but its own
// counters and sequence state — no application hook, no flight array
// (it is back on the network's shelf), no out-of-order buffer — and
// what can still arrive is handled from those: lateArrivals reads as it
// was recorded before a finished pair gave anything up, instant for
// instant, with the same Fired, counters and summaries.
func TestFinishedPairKeepsCountersOnly(t *testing.T) {
	w, _, client, server := finishedPair(t)
	for _, c := range []*Conn{client, server} {
		if c.onEstablished != nil || c.onDeliver != nil || c.onClose != nil || c.writableHook != nil {
			t.Errorf("%s: finished, and still holds an application hook", c.id)
		}
		if c.inflight.buf != nil || c.ooo != nil {
			t.Errorf("%s: finished, and still holds flight %v (cap %d), ooo %v (cap %d)",
				c.id, c.inflight.buf, cap(c.inflight.buf), c.ooo, cap(c.ooo))
		}
	}
	shelved := 0
	for _, b := range w.net.windows.bins {
		shelved += len(b)
	}
	if shelved < 2 {
		t.Errorf("%d flight arrays on the shelf after a connection that used one each way, and whatever the response outgrew", shelved)
	}

	const want = "5s fin:c fin; 5s fin:s fin; 5.020032s fin:s ack[400]; 5.020032s fin:c ack[5000]; 6.040064s fin:c ack[5000]; idle at 6.060096s, fired 33; client spurious 1 rcvd 5000 retx 0; server spurious 0 rcvd 400 retx 0; fin:c state=4 cwnd=10.0 ssthresh=1048576.0 una=400 nxt=400 q=0 inflight=0; fin:s state=4 cwnd=10.0 ssthresh=1048576.0 una=5000 nxt=5000 q=0 inflight=0"
	if got := lateArrivals(t); got != want {
		t.Errorf("late arrivals at a finished pair:\n got %q\nwant %q", got, want)
	}
}

// TestUnfinishedPairKeepsItsHooks: a pair is not retired while anything
// can still happen to it. One end closing is not enough, nor both with a
// FIN lost — that pair waits for ReleaseRuntime, which retires it the
// same way.
func TestUnfinishedPairKeepsItsHooks(t *testing.T) {
	w := newWorld(cleanPath(), 1)
	client, server := w.net.NewConnPair(DefaultConfig(), DefaultConfig(), "half", "d")
	got := 0
	var asm StreamAssembler
	asm.Attach(client)
	asm.Expect(5000, sim.Func(func() { got++ }))
	asm.Expect(1, nil) // never sent: the queue is not empty when the run ends
	server.OnDeliver(func(int) { server.Write(5000) })
	client.OnEstablished(func() { client.Write(400) })
	client.Connect()
	w.loop.Run(5 * sim.Second)
	client.Close()
	w.loop.RunUntilIdle()
	if got != 1 || client.onDeliver == nil || server.onDeliver == nil {
		t.Fatalf("after the client alone closed: %d responses landed, hooks %v / %v", got, client.onDeliver, server.onDeliver)
	}
	w.net.Path().BtoA.SetFilter(func(netem.Payload, int) bool { return false }) // the server's FIN is lost
	server.Close()
	w.loop.RunUntilIdle()
	if client.finRcvd || !server.finRcvd || client.onDeliver == nil || server.onDeliver == nil {
		t.Fatalf("with the server's FIN lost: client holds a FIN %v, server %v, hooks %v / %v",
			client.finRcvd, server.finRcvd, client.onDeliver, server.onDeliver)
	}
	w.net.ReleaseRuntime()
	if client.onDeliver != nil || server.onDeliver != nil || client.inflight.buf != nil || server.inflight.buf != nil {
		t.Fatal("ReleaseRuntime left a hook or a flight array on a pair that never finished")
	}
	if client.BytesRcvdApp != 5000 || server.BytesRcvdApp != 400 {
		t.Fatalf("counters after release: client received %d, server %d", client.BytesRcvdApp, server.BytesRcvdApp)
	}
}
