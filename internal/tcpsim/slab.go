package tcpsim

// Slab is where a run's records of one kind come from: carved one after
// the other from chunks they share, instead of allocated apiece — the
// network's connection pairs, and the browser's pooled-connection
// handles, domain pools and the pools' connection slots. A chunk is
// twice the size of the one before, from one record up to the cap its
// owner fits to a size class, as NameArena's are: a run of one
// connection allocates no more than its record, one of 1,400 a chunk per
// cap. An owner that knows how many records a run will take reserves
// them (Reserve), and they come from one chunk. Chunks never move, so a
// record's address holds for as long as anything points into its chunk;
// nothing is given back. The zero value allocates every record alone.
type Slab[T any] struct {
	chunk []T
	limit int
}

// NewSlab returns a slab whose chunks grow to at most limit records.
func NewSlab[T any](limit int) Slab[T] { return Slab[T]{limit: limit} }

// Reserve begins a chunk of exactly n records: the next n that Take and
// New hand out come from it, and what was left of the chunk before is
// not handed out. Past it, chunks double from n as before.
func (s *Slab[T]) Reserve(n int) { s.chunk = make([]T, 0, n) }

// New returns a pointer to a zero T.
func (s *Slab[T]) New() *T { return &s.Take(1)[0] }

// Take returns n consecutive zero Ts as a slice whose capacity is n: an
// append past the n reallocates, and cannot write into the records cut
// after it. A chunk without room for n is left to the records cut from
// it and a new one begun.
func (s *Slab[T]) Take(n int) []T {
	at := len(s.chunk)
	if cap(s.chunk)-at < n {
		size := min(max(1, 2*cap(s.chunk)), s.limit)
		s.chunk, at = make([]T, 0, max(size, n)), 0
	}
	s.chunk = s.chunk[:at+n]
	return s.chunk[at : at+n : at+n]
}
