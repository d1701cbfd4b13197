package tcpsim

// deque is a head-indexed FIFO over one backing array: popping advances
// head instead of reslicing away front capacity, and a push that finds
// the array full slides the live window back to the start before it
// would have to grow. A warm deque therefore never allocates, which is
// what keeps the steady-state segment path allocation-free. It carries a
// TCP flight (sentSeg), a QUIC flight (qSent), QUIC's unsent chunks
// (qChunk) and a StreamAssembler's expected messages; the counters
// those keep beside it (inflCount, sentCopies) live in the wrappers that
// own them.
type deque[T any] struct {
	buf  []T
	head int
}

// live returns the queued elements, oldest first. The slice aliases the
// backing array: it is good until the next push.
func (d *deque[T]) live() []T { return d.buf[d.head:] }

// size is the number of queued elements.
func (d *deque[T]) size() int { return len(d.buf) - d.head }

// push appends v, compacting in place before the array would grow.
func (d *deque[T]) push(v T) {
	if len(d.buf) == cap(d.buf) && d.head > 0 {
		n := copy(d.buf, d.buf[d.head:])
		d.buf = d.buf[:n]
		d.head = 0
	}
	d.buf = append(d.buf, v)
}

// popFront drops the oldest element; an emptied deque rewinds to the
// start of its array.
func (d *deque[T]) popFront() {
	d.head++
	if d.head == len(d.buf) {
		d.buf = d.buf[:0]
		d.head = 0
	}
}
