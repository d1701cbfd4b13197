package spdy

import (
	"encoding/binary"
	"strconv"

	"spdier/internal/spdy/flatesize"
)

// SizeOracle measures the real wire size of SPDY frames for the
// simulator. It holds a session's header-compression context as a
// size-only deflater (flatesize: the stdlib's level-9 match finder and
// block chooser, counting bits instead of writing them), so the first
// request on a session costs its full compressed header block and
// subsequent ones shrink as the shared zlib context warms — the
// behaviour that lets almost every SPDY request fit in a single TCP
// packet (Section 5.1). Every size equals what a Framer would have
// written (TestSizeOracleMatchesRealFramer, FuzzSizeOnlyDeflate).
type SizeOracle struct {
	z     *flatesize.Sizer
	plain []byte // reused uncompressed block
}

// NewSizeOracle returns a fresh per-session size oracle.
func NewSizeOracle() *SizeOracle {
	return &SizeOracle{z: flatesize.New(headerDictionary)}
}

// Shelf lends the zlib contexts of a run's size oracles and takes them
// back when the run ends, so that a sequence of runs allocates each
// 458 KiB context once instead of once per session. A nil *Shelf lends
// nothing: its oracles allocate their contexts, as NewSizeOracle's do.
// A Shelf is plain memory with no lock: one run at a time may use it.
type Shelf struct {
	spare []*flatesize.Sizer
	lent  []*SizeOracle
}

// NewSizeOracle is the package's NewSizeOracle on a context from the
// shelf, reset to a new stream's state, when it has one.
func (sh *Shelf) NewSizeOracle() *SizeOracle {
	if sh == nil {
		return NewSizeOracle()
	}
	o := &SizeOracle{}
	if n := len(sh.spare); n > 0 {
		o.z = sh.spare[n-1]
		sh.spare = sh.spare[:n-1]
		o.z.Reset(headerDictionary)
	} else {
		o.z = flatesize.New(headerDictionary)
	}
	sh.lent = append(sh.lent, o)
	return o
}

// Reclaim takes back the context of every oracle the shelf has lent
// since the last Reclaim. Those oracles keep nothing of it, so anything
// that outlives the run reaches none of the shelf's memory; they must
// not size again.
func (sh *Shelf) Reclaim() {
	for i, o := range sh.lent {
		sh.spare = append(sh.spare, o.z)
		o.z, sh.lent[i] = nil, nil
	}
	sh.lent = sh.lent[:0]
}

// frameHeaderSize is the 8-byte header every frame starts with.
const frameHeaderSize = 8

// DataFrameOverhead is the fixed header cost of a DATA frame.
const DataFrameOverhead = frameHeaderSize

// FrameSize returns the serialized size of fr on this session, advancing
// the compression context exactly as a real transmission would.
func (o *SizeOracle) FrameSize(fr Frame) int {
	w, err := layout(fr)
	if err != nil {
		panic("spdy: size oracle: " + err.Error())
	}
	n := frameHeaderSize + len(w.body)
	if w.block {
		n += o.blockSize(w.headers)
	}
	return n
}

func (o *SizeOracle) blockSize(h Headers) int {
	o.plain = appendPlain(o.plain[:0], h)
	return o.z.BlockSize(o.plain)
}

// RequestSize is FrameSize of a SYN_STREAM carrying RequestHeaders of
// the same arguments, without the map: the set's names are fixed, so
// the block is appended in sorted order directly.
func (o *SizeOracle) RequestSize(method, scheme, host, path, userAgent string) int {
	pairs := uint32(8)
	if userAgent != "" {
		pairs++
	}
	p := binary.BigEndian.AppendUint32(o.plain[:0], pairs)
	p = appendString(appendString(p, ":host"), host)
	p = appendString(appendString(p, ":method"), method)
	p = appendString(appendString(p, ":path"), path)
	p = appendString(appendString(p, ":scheme"), scheme)
	p = appendString(appendString(p, ":version"), httpVersion)
	p = appendString(appendString(p, "accept"), acceptAny)
	p = appendString(appendString(p, "accept-encoding"), acceptEncoding)
	p = appendString(appendString(p, "accept-language"), acceptLanguage)
	if userAgent != "" {
		p = appendString(appendString(p, "user-agent"), userAgent)
	}
	o.plain = p
	return frameHeaderSize + fixedLen[TypeSynStream] + o.z.BlockSize(p)
}

// ResponseSize is FrameSize of a SYN_REPLY carrying ResponseHeaders of
// the same arguments, without the map.
func (o *SizeOracle) ResponseSize(status, contentType string, contentLength int64) int {
	p := binary.BigEndian.AppendUint32(o.plain[:0], 5)
	p = appendString(appendString(p, ":status"), status)
	p = appendString(appendString(p, ":version"), httpVersion)
	var num [20]byte // the longest int64 with its sign
	digits := strconv.AppendInt(num[:0], contentLength, 10)
	p = binary.BigEndian.AppendUint32(appendString(p, "content-length"), uint32(len(digits)))
	p = append(p, digits...)
	p = appendString(appendString(p, "content-type"), contentType)
	p = appendString(appendString(p, "server"), serverName)
	o.plain = p
	return frameHeaderSize + fixedLen[TypeSynReply] + o.z.BlockSize(p)
}
