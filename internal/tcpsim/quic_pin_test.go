package tcpsim

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"testing"
	"time"

	"spdier/internal/netem"
	"spdier/internal/sim"
)

// sparseStreamsDigest is TestQUICSparseStreamsPinned's FNV-1a digest.
// It hashes each ACK's ranges as the wire carries them: the half-open
// spans of the receiver's received-PN set.
const sparseStreamsDigest = 0xf0b4acd2ce6ecf0d

// pinHash writes uint64s little-endian into an FNV-1a hash.
type pinHash struct{ h hash.Hash64 }

func (p pinHash) put(vs ...uint64) {
	var b [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], v)
		p.h.Write(b[:])
	}
}

// TestQUICSparseStreamsPinned pins the QUIC receiver on stream IDs that
// are not dense — 0, 1, 3, 5 and a beacon's 20001 — over a path that
// drops in bursts, reorders and duplicates both ways: every stream's
// delivery sequence (at, side, stream, bytes), every ACK as it is
// delivered (sender, largest, ranges) and what the loop fired, hashed
// together. Lost packet numbers are never re-sent, so each loss leaves a
// hole in the receiver's set for good: the streams are long enough for
// the set to fill to its cap of 32 spans, and the ACKs carry all of them.
func TestQUICSparseStreamsPinned(t *testing.T) {
	loop := sim.NewLoop()
	im := netem.Impairments{GEGoodToBad: 0.02, GEBadToGood: 0.3, GELossBad: 0.5, ReorderProb: 0.04, DupProb: 0.04}
	link := netem.LinkConfig{BandwidthBPS: 3_000_000, Delay: 60 * time.Millisecond, Jitter: 5 * time.Millisecond,
		QueueBytes: 64 << 10, LossRate: 0.01, Impair: im}
	nw := NewNetwork(loop, netem.NewPath(loop, netem.PathConfig{Up: link, Down: link}, sim.NewRNG(11), nil))
	client, server := nw.NewQUICPair(DefaultConfig(), DefaultConfig(), "sparse", "d")

	d := pinHash{fnv.New64a()}
	acks, widest := 0, 0
	deliver := func(p netem.Payload) {
		v := p.(*QUICPacket)
		if v.Ack {
			acks++
			widest = max(widest, len(v.AckRanges))
			d.h.Write([]byte(v.From))
			d.put(uint64(loop.Now()), v.AckLargest, uint64(len(v.AckRanges)))
			for _, r := range v.AckRanges {
				d.put(r[0], r[1])
			}
		}
		v.to.handlePacket(v)
		nw.retirePkt(v)
	}
	nw.Path().AtoB.SetReceiver(deliver)
	nw.Path().BtoA.SetReceiver(deliver)

	const beacon = 2*10000 + 1
	got := map[uint32]int{}
	onDeliver := func(side uint64) func(uint32, int) {
		return func(sid uint32, n int) {
			got[sid] += n
			d.put(uint64(loop.Now()), side, uint64(sid), uint64(n))
		}
	}
	client.OnStreamDeliver(onDeliver(0))
	server.OnStreamDeliver(onDeliver(1))
	want := map[uint32]int{0: 400, beacon: 3 * 250, 1: 0, 3: 0, 5: 0}
	client.OnEstablished(func() {
		client.WriteStream(0, 400)
		for i := 1; i <= 3; i++ {
			loop.After(time.Duration(i)*700*time.Millisecond, func() { client.WriteStream(beacon, 250) })
		}
		at := loop.Now()
		for i, sid := range []uint32{1, 3, 5, 1, 5, 3, 5, 1, 1, 3, 5, 5, 3, 1} {
			n := 12_000 + 15_000*i
			want[sid] += n
			at = at.Add(time.Duration(150+90*i) * time.Millisecond)
			loop.At(at, func() {
				for k := 0; k < n; k += 2_000 {
					server.WriteStream(sid, min(2_000, n-k))
				}
			})
		}
	})
	client.Connect()
	end := loop.RunUntilIdle()
	d.put(uint64(end), loop.Fired())

	for sid, n := range want {
		if got[sid] != n {
			t.Fatalf("stream %d delivered %d bytes, want %d", sid, got[sid], n)
		}
	}
	if nw.LiveSegments() != 0 {
		t.Fatalf("%d packets live after the run", nw.LiveSegments())
	}
	st := nw.Path().BtoA.Stats()
	if server.Retransmits == 0 || st.Reordered == 0 || st.Duplicated == 0 || widest < 32 {
		t.Fatalf("the path did not bite: %d retransmissions, %+v, widest ACK %d ranges", server.Retransmits, st, widest)
	}
	if sum := d.h.Sum64(); sum != sparseStreamsDigest {
		t.Errorf("sparse-stream run digest %#x over %d ACKs, fired %d, idle at %v; pinned %#x",
			sum, acks, loop.Fired(), end, uint64(sparseStreamsDigest))
	}
}
