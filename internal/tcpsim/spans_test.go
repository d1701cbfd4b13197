package tcpsim

import (
	"fmt"
	"slices"
	"testing"

	"spdier/internal/sim"
)

// bitSpans is the reference a spanSet is held to: one flag per unit of a
// small universe, set where the set holds the unit.
type bitSpans []bool

func (b bitSpans) add(lo, hi uint64) (added uint64) {
	for u := lo; u < hi; u++ {
		if !b[u] {
			b[u] = true
			added++
		}
	}
	return added
}

// drain clears every held unit at or below the point, in ascending
// order, moving the point past each unit it reaches.
func (b bitSpans) drain(at uint64) uint64 {
	for u := range b {
		if b[u] && uint64(u) <= at {
			b[u] = false
			if uint64(u) == at {
				at++
			}
		}
	}
	return at
}

// runs returns the maximal runs of held units, ascending.
func (b bitSpans) runs() [][2]uint64 {
	var out [][2]uint64
	for u := range b {
		switch {
		case !b[u]:
		case u > 0 && b[u-1]:
			out[len(out)-1][1]++
		default:
			out = append(out, [2]uint64{uint64(u), uint64(u) + 1})
		}
	}
	return out
}

// trim clears every run but the highest n.
func (b bitSpans) trim(n int) {
	if r := b.runs(); len(r) > n {
		for _, x := range r[:len(r)-n] {
			clear(b[x[0]:x[1]])
		}
	}
}

// spanDriver takes the same arrivals into a spanSet and its reference,
// the way one of the three receivers does, and fails the test at the
// first operation after which the two differ.
type spanDriver struct {
	t     *testing.T
	name  string
	set   *spanSet
	ref   bitSpans
	at    uint64    // the cumulative point, for the receivers that drain
	q     *QUICConn // the endpoint whose received-PN set is set
	steps int
}

func newSpanDriver(t *testing.T, name string, units int) *spanDriver {
	return &spanDriver{t: t, name: name, set: new(spanSet), ref: make(bitSpans, units)}
}

// newPNDriver drives a QUIC endpoint's recordPN.
func newPNDriver(t *testing.T, name string, pns int) *spanDriver {
	q := newQUICConn(sim.NewLoop(), DefaultConfig(), "pn", "d", true)
	return &spanDriver{t: t, name: name, set: &q.rcvRanges, ref: make(bitSpans, pns), q: q}
}

func (d *spanDriver) check(op string, got, want uint64) {
	d.t.Helper()
	d.steps++
	if got != want || !slices.Equal([][2]uint64(*d.set), d.ref.runs()) {
		d.t.Fatalf("%s, step %d, %s: returned %d, set %v; reference %d, %v", d.name, d.steps, op, got, *d.set, want, d.ref.runs())
	}
}

// arrive takes [lo, hi) as a draining receiver does: old bytes change
// nothing, bytes above a hole are buffered, and bytes at or below the
// cumulative point carry it to their end and through what is buffered
// beyond.
func (d *spanDriver) arrive(lo, hi uint64) {
	d.t.Helper()
	op := fmt.Sprintf("[%d,%d) at %d", lo, hi, d.at)
	switch {
	case hi <= d.at:
	case lo > d.at:
		d.check("add "+op, d.set.add(lo, hi), d.ref.add(lo, hi))
	default:
		got := d.set.drain(hi)
		want := d.ref.drain(hi)
		d.check("drain "+op, got, want)
		d.at = got
	}
}

// recordPN takes one packet number into the endpoint's received-PN set,
// and into the reference as an add and a trim to the cap; the set
// returns 1 for a fresh packet number.
func (d *spanDriver) recordPN(pn uint64) {
	d.t.Helper()
	var got uint64
	if d.q.recordPN(pn) {
		got = 1
	}
	want := d.ref.add(pn, pn+1)
	d.ref.trim(quicMaxAckRanges)
	d.check(fmt.Sprintf("pn %d", pn), got, want)
}

// TestSpanSetMatchesBitmap holds the span set to a bitmap over random
// arrivals in the three shapes its receivers give it: TCP's segments,
// whose bounds never change, in any order with duplicates and
// retransmissions; QUIC's packet numbers, mostly ascending, reordered,
// duplicated and lost for good, the set trimmed to its cap after each;
// and QUIC stream chunks, cut anew on every retransmission so they
// overlap what is held and what was delivered. After every operation the
// set is exactly the bitmap's maximal runs — merged, ascending, a hole
// before each — and returned what the bitmap returned. The packet
// numbers go through QUICConn.recordPN, first 1, 2, 3, 5, 6, 4: a
// number that fills a hole of one from above must join the spans on
// both sides of it.
func TestSpanSetMatchesBitmap(t *testing.T) {
	fill := newPNDriver(t, "packet numbers 1, 2, 3, 5, 6, 4, 4", 8)
	for _, pn := range []uint64{1, 2, 3, 5, 6, 4, 4} {
		fill.recordPN(pn)
	}
	for seed := uint64(1); seed <= 80; seed++ {
		rng := sim.NewRNG(seed)

		segs := flightSegs(rng, 16+rng.Intn(241), 40)
		end := segs[len(segs)-1][0] + segs[len(segs)-1][1]
		d := newSpanDriver(t, fmt.Sprintf("segments seed %d", seed), int(end))
		for _, s := range arrivals(rng, segs) {
			d.arrive(s[0], s[0]+s[1])
		}
		if d.at != end || len(*d.set) != 0 {
			t.Fatalf("%s: flight ends at %d, cumulative point %d, %v still held", d.name, end, d.at, *d.set)
		}

		const pns = 600
		d = newPNDriver(t, fmt.Sprintf("packet numbers seed %d", seed), pns)
		late := []uint64{}
		for pn := uint64(0); pn < pns; pn++ {
			switch {
			case rng.Bool(0.08): // lost, never re-sent
				continue
			case rng.Bool(0.1): // overtaken by the packets after it
				late = append(late, pn)
				continue
			}
			d.recordPN(pn)
			if rng.Bool(0.05) {
				d.recordPN(pn) // duplicated on the wire
			}
			for len(late) > 0 && rng.Bool(0.4) {
				i := rng.Intn(len(late))
				d.recordPN(late[i])
				late = slices.Delete(late, i, i+1)
			}
		}
		for _, pn := range late {
			d.recordPN(pn)
		}

		const stream = 3000
		d = newSpanDriver(t, fmt.Sprintf("stream chunks seed %d", seed), stream)
		for d.at < stream {
			lo := uint64(rng.Intn(stream))
			if rng.Bool(0.3) {
				lo = d.at - min(d.at, uint64(rng.Intn(60)))
			}
			d.arrive(lo, min(stream, lo+1+uint64(rng.Intn(120))))
		}
		if len(*d.set) != 0 {
			t.Fatalf("%s: stream delivered, %v still held", d.name, *d.set)
		}
	}
}
