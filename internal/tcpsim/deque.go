package tcpsim

// deque is a head-indexed FIFO over one backing array: popping advances
// head instead of reslicing away front capacity, and a push that finds
// the array full slides the live window back to the start before it
// would have to grow. A warm deque therefore never allocates, which is
// what keeps the steady-state segment path allocation-free. It carries a
// TCP flight (sentSeg), a QUIC flight (qSent), QUIC's unsent chunks
// (qChunk) and a StreamAssembler's expected messages; the counters
// those keep beside it (inflCount, sentCopies) live in the wrappers that
// own them. A TCP flight and an assembler's queue do not keep their array
// for good: it is on loan from the run (loan.go), through adopt and
// surrender.
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

// adopt moves the queue into a, an empty array with room for it, and
// returns the array it leaves, emptied.
func (d *deque[T]) adopt(a []T) []T {
	old := d.buf
	d.buf, d.head = append(a[:0], old[d.head:]...), 0
	clear(old)
	return old[:0]
}

// surrender returns the array of an empty deque, which is left without
// one and allocates on its next push as a zero deque does.
func (d *deque[T]) surrender() []T {
	a := d.buf
	d.buf, d.head = nil, 0
	return a
}
