package tcpsim

// freeList is the pool behind a Network's wire units. A unit lives
// exactly one send→link→deliver cycle: the endpoint's transmit hands it
// to the link, the network's demuxer puts it back after the handler
// returns, so steady-state traffic allocates none at all. A miss — the
// list is empty while more units are in flight than ever before this
// run — is carved from the list's slab, so even the run's peak costs a
// chunk per wireChunk units, not an object each.
//
// live counts units handed out by get and not yet retired through put.
// Every unit retires exactly once — delivered, dropped at the
// queue/loss/burst stage, or duplicated-and-delivered — so a quiesced
// network must read zero; anything else is a pool leak or a double free.
//
// T is Segment or QUICPacket, recycled before it is put — back to the
// zero value, a segment keeping only the backing array of its SACK
// blocks so later ACKs reuse it, a packet nothing: its ACK ranges array
// was on loan and goes back to the network (Network.takeRanges) — by
// Network.retireSeg and retirePkt, not by put: a method called through
// a type parameter goes through the dictionary and is never inlined.
// T is also that array of ranges, put back by retirePkt as it is: the
// next ACK takes it empty and writes only the ranges it appends.
type freeList[T any] struct {
	free []*T
	slab Slab[T]
	live int
}

// get returns a unit, recycled as it was put when possible, else a
// zero one carved from the slab. With pooling off
// every unit is carved afresh, so no address is ever reused.
func (f *freeList[T]) get() *T {
	f.live++
	if ln := len(f.free); segPooling && ln > 0 {
		p := f.free[ln-1]
		f.free = f.free[:ln-1]
		return p
	}
	return f.slab.New()
}

// put takes back a recycled unit.
func (f *freeList[T]) put(p *T) {
	f.live--
	if segPooling {
		f.free = append(f.free, p)
	}
}
