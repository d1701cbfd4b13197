package tcpsim

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"spdier/internal/netem"
	"spdier/internal/sim"
)

// oooRef is the receiver's out-of-order buffer as it was first written,
// kept as the reference the receiver is held to: a map from sequence
// number to length, whose keys are collected and sorted for every SACK
// option, and drained one lookup at a time when a hole fills.
type oooRef struct {
	rcvNxt   uint64
	ooo      map[uint64]int
	oooBytes int
	recvBuf  int
}

// arrive takes one data segment as Conn.receiveData does and reports
// whether it was old data (the ACK it draws carries a DSACK).
func (r *oooRef) arrive(seq uint64, n int) (dsack bool) {
	end := seq + uint64(n)
	switch {
	case end <= r.rcvNxt:
		return true
	case seq > r.rcvNxt:
		if _, dup := r.ooo[seq]; !dup {
			r.ooo[seq] = n
			r.oooBytes += n
		}
		return false
	}
	r.rcvNxt = end
	for {
		l, ok := r.ooo[r.rcvNxt]
		if !ok {
			break
		}
		delete(r.ooo, r.rcvNxt)
		r.oooBytes -= l
		r.rcvNxt += uint64(l)
	}
	return false
}

// blocks is the SACK option: the buffer's sorted keys merged into runs,
// the first four of them.
func (r *oooRef) blocks() [][2]uint64 {
	var seqs []uint64
	for seq := range r.ooo {
		seqs = append(seqs, seq)
	}
	slices.Sort(seqs)
	var blocks [][2]uint64
	for _, seq := range seqs {
		end := seq + uint64(r.ooo[seq])
		if n := len(blocks); n > 0 && blocks[n-1][1] == seq {
			blocks[n-1][1] = end
			continue
		}
		blocks = append(blocks, [2]uint64{seq, end})
	}
	if len(blocks) > 4 {
		blocks = blocks[:4]
	}
	return blocks
}

func (r *oooRef) window() int { return max(0, r.recvBuf-r.oooBytes) }

// emittedAck is what the receiver put on the wire in one pure ACK.
type emittedAck struct {
	ack   uint64
	wnd   int
	dsack bool
	sack  [][2]uint64
}

// sackReceiver returns the client end of a pair whose ACKs are recorded
// and dropped, ready to take data segments, and the log of its ACKs.
func sackReceiver() (*Conn, *[]emittedAck) {
	nw := blackholeNet()
	acks := &[]emittedAck{}
	nw.Path().AtoB.SetFilter(func(p netem.Payload, _ int) bool {
		if s, ok := p.(*Segment); ok {
			*acks = append(*acks, emittedAck{s.Ack, s.Wnd, s.Dsack, slices.Clone(s.Sack)})
		}
		return false
	})
	c, _ := nw.NewConnPair(DefaultConfig(), DefaultConfig(), "sack", "d")
	c.state = stEstablished
	return c, acks
}

// arrivals is the order in which a receiver sees a flight of segments
// (seq, len) over a lossy, reordering, duplicating path: a shuffled first
// pass that loses some and repeats some, then rounds of retransmissions
// of what is still missing, shuffled and lossy in turn, each sprinkled
// with spurious copies of segments already delivered.
func arrivals(rng *sim.RNG, segs [][2]uint64) [][2]uint64 {
	var out [][2]uint64
	missing := segs
	for round := 0; len(missing) > 0; round++ {
		var pass, still [][2]uint64
		for _, s := range missing {
			if round < 4 && rng.Bool(0.2) {
				still = append(still, s) // lost this round
				continue
			}
			pass = append(pass, s)
			if rng.Bool(0.05) {
				pass = append(pass, s) // duplicated on the wire
			}
		}
		for i := 0; i < len(segs)/16; i++ {
			pass = append(pass, segs[rng.Intn(len(segs))]) // a needless retransmission
		}
		for i, j := range rng.Perm(len(pass)) {
			pass[i], pass[j] = pass[j], pass[i]
		}
		out = append(out, pass...)
		missing = still
	}
	return out
}

// flightSegs cuts n segments of up to one MSS, most of them full, from
// sequence 0 up.
func flightSegs(rng *sim.RNG, n, mss int) [][2]uint64 {
	segs := make([][2]uint64, n)
	var seq uint64
	for i := range segs {
		l := mss
		if rng.Bool(0.15) {
			l = 1 + rng.Intn(mss)
		}
		segs[i] = [2]uint64{seq, uint64(l)}
		seq += uint64(l)
	}
	return segs
}

// TestSackOptionsMatchReference holds the receiver's out-of-order
// buffer to the map-and-sort code it replaced: over random arrival
// orders of flights of 16 to 256 segments — holes, wire duplicates,
// retransmissions that fill holes and ones that arrive after the bytes
// did — the cumulative point, the buffered byte count, the advertised
// window and the SACK option agree after every segment, and every ACK
// the receiver emits carries exactly what the reference would.
func TestSackOptionsMatchReference(t *testing.T) {
	for seed := uint64(1); seed <= 60; seed++ {
		rng := sim.NewRNG(seed)
		n := 16 + rng.Intn(241)
		c, acks := sackReceiver()
		ref := &oooRef{ooo: map[uint64]int{}, recvBuf: c.cfg.RecvBuffer}
		segs := flightSegs(rng, n, c.cfg.MSS)
		for i, s := range arrivals(rng, segs) {
			emitted := len(*acks)
			c.handleSegment(&Segment{Seq: s[0], Len: int(s[1]), TSVal: sim.Time(i + 1)})
			dsack := ref.arrive(s[0], int(s[1]))
			at := fmt.Sprintf("seed %d (flight %d), arrival %d [%d,+%d)", seed, n, i, s[0], s[1])
			if c.rcvNxt != ref.rcvNxt || c.oooBytes != ref.oooBytes || c.recvWindow() != ref.window() {
				t.Fatalf("%s: rcvNxt %d oooBytes %d window %d, reference %d %d %d",
					at, c.rcvNxt, c.oooBytes, c.recvWindow(), ref.rcvNxt, ref.oooBytes, ref.window())
			}
			want := ref.blocks()
			if got := [][2]uint64(c.ooo[:min(4, len(c.ooo))]); !slices.Equal(got, want) {
				t.Fatalf("%s: SACK option %v, reference %v", at, got, want)
			}
			for _, a := range (*acks)[emitted:] {
				if a.ack != ref.rcvNxt || a.wnd != ref.window() || a.dsack != dsack || !slices.Equal(a.sack, want) {
					t.Fatalf("%s: emitted ack=%d wnd=%d dsack=%t sack=%v, reference %d %d %t %v",
						at, a.ack, a.wnd, a.dsack, a.sack, ref.rcvNxt, ref.window(), dsack, want)
				}
			}
		}
		if end := segs[n-1][0] + segs[n-1][1]; c.rcvNxt != end || c.oooBytes != 0 {
			t.Fatalf("seed %d: flight of %d bytes ends at rcvNxt %d with %d bytes buffered", seed, end, c.rcvNxt, c.oooBytes)
		}
	}
}

// refApplySack is Conn.applySack as it was first written — every block
// against every record of the flight, then a loss-marking pass over the
// whole flight — kept as the reference of the property test below.
func refApplySack(c *Conn, ack *Segment) {
	blocks := ack.Sack
	if len(blocks) == 0 {
		return
	}
	var highest uint64
	fl := c.infl()
	for _, b := range blocks {
		if b[1] > highest {
			highest = b[1]
		}
		for i := range fl {
			sg := &fl[i]
			if !sg.sacked && sg.seq >= b[0] && sg.seq+uint64(sg.len) <= b[1] {
				c.markSacked(sg)
				if c.cfg.RACK && (!sg.retx ||
					(ack.TSEcr > 0 && ack.TSEcr >= sg.sentAt) ||
					c.loop.Now().Sub(sg.sentAt) >= c.rackReoWnd()) {
					c.rackSeen(sg.sentAt, sg.seq+uint64(sg.len))
				}
			}
		}
	}
	if c.caState == caOpen {
		return
	}
	for i := range fl {
		sg := &fl[i]
		if !sg.sacked && !sg.retx && sg.seq+uint64(sg.len) <= highest {
			c.markLost(sg, causeRTO)
		}
	}
}

// sackSender builds, from seed alone, a sender ten seconds into its run
// with a flight of up to maxLen records in every state an ACK can meet
// them in — sent once or retransmitted, sacked, declared lost by either
// cause — in any congestion state, with RACK on or off, and the ACK that
// reaches it: a cumulative point inside the flight and up to four SACK
// blocks above it, ascending and disjoint, their edges mostly on record
// boundaries and now and then inside a record. The same seed gives the
// same pair, so one can take the ACK through applySack and the other
// through the reference.
func sackSender(seed uint64, maxLen int) (*Conn, *Segment) {
	rng := sim.NewRNG(seed)
	nw := blackholeNet()
	_, c := nw.NewConnPair(DefaultConfig(), DefaultConfig(), "sack", "d")
	c.loop.AtCall(sim.Time(10*time.Second), sim.Func(func() {}))
	c.loop.RunUntilIdle()
	c.cfg.RACK = rng.Bool(0.5)
	c.rtt.srtt = time.Duration(1+rng.Intn(400)) * time.Millisecond
	c.caState = []int{caOpen, caRecovery, caLoss}[rng.Intn(3)]

	n := 1 + rng.Intn(maxLen)
	c.sndUna = uint64(rng.Intn(1 << 20))
	seq := c.sndUna
	for k := 0; k < n; k++ {
		s := sentSeg{seq: seq, len: 1 + rng.Intn(c.cfg.MSS), sentAt: sim.Time(time.Duration(rng.Intn(10_000)) * time.Millisecond)}
		s.retx = rng.Bool(0.3)
		switch {
		case rng.Bool(0.25):
			s.sacked = true
		case rng.Bool(0.25):
			s.lost, s.lostBy = true, uint8(rng.Intn(2))
		}
		c.pushInflight(s)
		seq += uint64(s.len)
	}
	c.sndNxt = seq

	fl := c.infl()
	ack := &Segment{Flags: flagACK, TSEcr: sim.Time(time.Duration(rng.Intn(10_000)) * time.Millisecond)}
	if rng.Bool(0.2) {
		ack.TSEcr = 0
	}
	i := rng.Intn(len(fl))
	ack.Ack = fl[i].seq
	for b := 0; b < 1+rng.Intn(4) && i < len(fl)-1; b++ {
		i += 1 + rng.Intn(max(1, (len(fl)-i)/3)) // a hole of at least one record
		if i >= len(fl) {
			break
		}
		j := min(len(fl), i+1+rng.Intn(8))
		block := [2]uint64{fl[i].seq, fl[j-1].seq + uint64(fl[j-1].len)}
		if rng.Bool(0.1) {
			block[0]++ // starts inside its first record
		}
		if rng.Bool(0.1) && block[1]-block[0] > 1 {
			block[1]-- // ends inside its last record
		}
		ack.Sack = append(ack.Sack, block)
		i = j
	}
	return c, ack
}

// TestApplySackMatchesReference holds applySack to the flight × blocks
// scan it replaced, over random flights and ACKs: both leave every record
// with the same marks and causes, the same in-flight count and the same
// RACK delivery watermark. Every mark is a flag set once with a count
// beside it and the watermark keeps a lexicographic maximum, so equal end
// states mean the same marks were made; the order they were made in is
// the blocks' ascending order in both.
func TestApplySackMatchesReference(t *testing.T) {
	for seed := uint64(1); seed <= 400; seed++ {
		got, ack := sackSender(seed, 300)
		want, wantAck := sackSender(seed, 300)
		got.applySack(ack)
		refApplySack(want, wantAck)
		if !slices.Equal(got.infl(), want.infl()) {
			for i, g := range got.infl() {
				if w := want.infl()[i]; g != w {
					t.Fatalf("seed %d (blocks %v, ca %d, rack %t): record %d is %+v, reference %+v",
						seed, ack.Sack, got.caState, got.cfg.RACK, i, g, w)
				}
			}
		}
		if got.inflCount != want.inflCount || got.rack != want.rack {
			t.Fatalf("seed %d: inflCount %d rack %+v, reference %d %+v", seed, got.inflCount, got.rack, want.inflCount, want.rack)
		}
	}
}
