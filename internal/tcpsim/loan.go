package tcpsim

import "math/bits"

// shelf is where a run keeps the backing arrays its queues are not
// using. A connection's flight and a stream assembler's queue borrow
// theirs: the first push takes an array from the shelf, a push that
// would have to grow takes a larger one and puts the outgrown one back,
// and a connection that has finished (Conn.retire) returns what it
// holds — so the connections of one page run on the arrays of the page
// before, and a closed connection keeps none. Like the freeLists beside
// it on the Network, a shelf starts empty, holds only what some queue of
// this run has needed, and goes with the run.
//
// Arrays stand in bins by capacity, bin k holding those with room for
// 2^k up to 2^(k+1)-1 elements (append doubles small arrays, so in
// practice exactly 2^k); the last bin takes everything larger.
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

// push is d.push(v) with d's array on loan from s: where the push would
// allocate — d has no array yet, or a full one with nothing popped to
// slide over — d moves to an array off the shelf if one is large enough,
// and either way the array it leaves is shelved. A nil shelf lends
// nothing: d grows as a deque does.
func (s *shelf[T]) push(d *deque[T], v T) {
	if s != nil && len(d.buf) == cap(d.buf) && d.head == 0 {
		if a := s.take(max(1, 2*cap(d.buf))); a != nil {
			s.put(d.adopt(a))
		} else {
			old := d.buf
			d.push(v)
			clear(old)
			s.put(old)
			return
		}
	}
	d.push(v)
}
