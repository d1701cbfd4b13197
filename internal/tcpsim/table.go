package tcpsim

// ConnStats is one TCP endpoint as a run's results read it: its name and
// its counters, by value. Network.Conns lists one per endpoint.
type ConnStats struct {
	ID               string
	Retransmits      int
	FastRetransmits  int
	RACKRetransmits  int
	TLPProbes        int
	FrtoUndos        int
	SpuriousArrivals int
	Undos            int
	IdleRestarts     int
	BytesSentApp     int64
	BytesRcvdApp     int64
}

// stats returns the endpoint's name and counters as they stand.
func (c *Conn) stats() ConnStats {
	return ConnStats{
		ID:               c.id,
		Retransmits:      c.Retransmits,
		FastRetransmits:  c.FastRetransmits,
		RACKRetransmits:  c.RACKRetransmits,
		TLPProbes:        c.TLPProbes,
		FrtoUndos:        c.FrtoUndos,
		SpuriousArrivals: c.SpuriousArrivals,
		Undos:            c.Undos,
		IdleRestarts:     c.IdleRestarts,
		BytesSentApp:     c.BytesSentApp,
		BytesRcvdApp:     c.BytesRcvdApp,
	}
}

// connTable holds a network's ConnStats, one an endpoint in the order
// NewConnPair made them, found by index (Conn.stat). It is what is left
// of a connection once its pair's record has gone back to the network,
// so it grows with every connection a run opens: in chunks, never
// copied once full, so that growing it costs no more than its records.
// The first chunk doubles from two records up to tableChunk, so that a
// run of one connection pays for two; every later one is allocated full.
type connTable struct {
	chunks [][]ConnStats
	n      int32
}

// tableChunk caps the table's chunks at the most records that fit the
// allocator's 8,192-byte class: a ConnStats is 96 bytes with a pointer,
// so 85 of them are 8,160 bytes, 8,168 with the header a pointer-bearing
// object over 512 bytes carries (TestWireChunkSizes).
const tableChunk = 85

// add appends a record named id and returns its index.
func (t *connTable) add(id string) int32 {
	k := len(t.chunks) - 1
	switch {
	case k < 0:
		t.chunks = append(t.chunks, make([]ConnStats, 0, 2))
		k = 0
	case len(t.chunks[k]) == tableChunk:
		t.chunks = append(t.chunks, make([]ConnStats, 0, tableChunk))
		k++
	case len(t.chunks[k]) == cap(t.chunks[k]):
		grown := make([]ConnStats, len(t.chunks[k]), min(2*cap(t.chunks[k]), tableChunk))
		copy(grown, t.chunks[k])
		t.chunks[k] = grown
	}
	t.chunks[k] = append(t.chunks[k], ConnStats{ID: id})
	t.n++
	return t.n - 1
}

// at returns the record at index i.
func (t *connTable) at(i int32) *ConnStats { return &t.chunks[i/tableChunk][i%tableChunk] }

// all returns a copy of every record, in order.
func (t *connTable) all() []ConnStats {
	out := make([]ConnStats, 0, t.n)
	for _, c := range t.chunks {
		out = append(out, c...)
	}
	return out
}
