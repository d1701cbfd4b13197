package tcpsim

// recyclable is a pooled wire unit, a *Segment or a *QUICPacket. recycle
// returns it to the zero value, keeping only the backing array of its
// SACK blocks or ACK ranges so later ACKs reuse it.
type recyclable[T any] interface {
	*T
	recycle()
}

// freeList is the pool behind a Network's wire units. A unit lives
// exactly one send→link→deliver cycle: the endpoint's transmit hands it
// to the link, the network's demuxer puts it back after the handler
// returns, so steady-state traffic allocates none at all.
//
// live counts units handed out by get and not yet retired through put.
// Every unit retires exactly once — delivered, dropped at the
// queue/loss/burst stage, or duplicated-and-delivered — so a quiesced
// network must read zero; anything else is a pool leak or a double free.
type freeList[T any, P recyclable[T]] struct {
	free []P
	live int
}

// get returns a zeroed unit, recycled when possible.
func (f *freeList[T, P]) get() P {
	f.live++
	if ln := len(f.free); segPooling && ln > 0 {
		p := f.free[ln-1]
		f.free = f.free[:ln-1]
		return p
	}
	return new(T)
}

// put retires a unit the link is done with and recycles it.
func (f *freeList[T, P]) put(p P) {
	f.live--
	if !segPooling {
		return
	}
	p.recycle()
	f.free = append(f.free, p)
}
