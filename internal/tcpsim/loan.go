package tcpsim

import "math/bits"

// shelf is where a run keeps the backing arrays its queues are not
// using. A connection's flight and a stream assembler's queue borrow
// theirs: the first push takes an array from the shelf, a push that
// would have to grow takes a larger one and puts the outgrown one back,
// and a connection that has finished (Conn.finish) or an assembler with
// nothing expected returns what it holds — so the connections of one
// page run on the arrays of the page before, and a closed connection
// keeps none. Like the freeLists beside it on the Network, a shelf
// starts empty, holds only what some queue of this run has needed, and
// goes with the run.
//
// Arrays stand in bins by capacity, bin k holding those with room for
// 2^k up to 2^(k+1)-1 elements (grow doubles, so in practice exactly
// 2^k); the last bin takes everything larger, which is more than a
// receive window holds segments.
type shelf[T any] struct {
	bins [shelfBins][][]T
}

const shelfBins = 12

// take returns an empty array with room for at least n elements, from
// the lowest bin that has one, or nil.
func (s *shelf[T]) take(n int) []T {
	for k := min(bits.Len(uint(n-1)), shelfBins-1); k < shelfBins; k++ {
		b := s.bins[k]
		if i := len(b) - 1; i >= 0 && cap(b[i]) >= n {
			a := b[i]
			b[i] = nil
			s.bins[k] = b[:i]
			return a
		}
	}
	return nil
}

// put shelves a, which nothing uses any more.
func (s *shelf[T]) put(a []T) {
	if cap(a) == 0 {
		return
	}
	k := min(bits.Len(uint(cap(a)))-1, shelfBins-1)
	s.bins[k] = append(s.bins[k], a[:0])
}

// room sees that d's next push does not allocate behind the shelf's
// back: where it would — d has no array yet, or a full one with nothing
// popped to slide over — d is moved to a larger array first. Everywhere
// else it is two comparisons, inlined into the send path.
func (s *shelf[T]) room(d *deque[T]) {
	if len(d.buf) == cap(d.buf) && d.head == 0 {
		s.grow(d)
	}
}

// grow moves d to an array of twice the room, as append would have: off
// the shelf if one that large stands there, new otherwise. The array d
// leaves is shelved either way, so nothing the run has allocated is
// dropped while the run lasts.
func (s *shelf[T]) grow(d *deque[T]) {
	n := max(1, 2*cap(d.buf))
	a := s.take(n)
	if a == nil {
		a = make([]T, 0, n)
	}
	s.put(d.adopt(a))
}
