package spdy

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Control frame types (SPDY/3 §2.6).
const (
	TypeSynStream    = 1
	TypeSynReply     = 2
	TypeRstStream    = 3
	TypeSettings     = 4
	TypePing         = 6
	TypeGoaway       = 7
	TypeHeaders      = 8
	TypeWindowUpdate = 9
)

// Frame flags.
const (
	FlagFin            = 0x01
	FlagUnidirectional = 0x02
)

// RST_STREAM and GOAWAY status codes (subset).
const (
	StatusProtocolError       = 1
	StatusInvalidStream       = 2
	StatusRefusedStream       = 3
	StatusCancel              = 5
	StatusInternalError       = 6
	StatusFlowControlErr      = 7
	StatusStreamInUse         = 8
	StatusStreamAlreadyClosed = 9
)

// Priority is a SPDY/3 stream priority: 0 (highest) through 7 (lowest).
type Priority uint8

// MaxPriority is the lowest-urgency priority value.
const MaxPriority Priority = 7

// Frame is any SPDY frame.
type Frame interface {
	frameType() int
}

// SynStream opens a stream (a request, when client-initiated).
type SynStream struct {
	StreamID uint32
	AssocID  uint32
	Priority Priority
	Fin      bool
	Headers  Headers
}

// SynReply answers a SynStream (a response head).
type SynReply struct {
	StreamID uint32
	Fin      bool
	Headers  Headers
}

// RstStream abnormally terminates a stream.
type RstStream struct {
	StreamID uint32
	Status   uint32
}

// Setting is one SETTINGS entry.
type Setting struct {
	Flags uint8
	ID    uint32 // 24 bits
	Value uint32
}

// SettingsFrame carries session configuration.
type SettingsFrame struct {
	Settings []Setting
}

// Ping measures liveness/RTT; the receiver echoes it.
type Ping struct {
	ID uint32
}

// Goaway initiates session shutdown.
type Goaway struct {
	LastStreamID uint32
	Status       uint32
}

// HeadersFrame carries additional headers for an open stream.
type HeadersFrame struct {
	StreamID uint32
	Fin      bool
	Headers  Headers
}

// WindowUpdate grows the flow-control window of a stream.
type WindowUpdate struct {
	StreamID uint32
	Delta    uint32
}

// DataFrame carries stream payload bytes.
type DataFrame struct {
	StreamID uint32
	Fin      bool
	Data     []byte
}

func (SynStream) frameType() int     { return TypeSynStream }
func (SynReply) frameType() int      { return TypeSynReply }
func (RstStream) frameType() int     { return TypeRstStream }
func (SettingsFrame) frameType() int { return TypeSettings }
func (Ping) frameType() int          { return TypePing }
func (Goaway) frameType() int        { return TypeGoaway }
func (HeadersFrame) frameType() int  { return TypeHeaders }
func (WindowUpdate) frameType() int  { return TypeWindowUpdate }
func (DataFrame) frameType() int     { return -1 }

// ErrFrameTooLarge guards against absurd length fields.
var ErrFrameTooLarge = errors.New("spdy: frame exceeds maximum length")

// maxFrameLen bounds accepted frame payloads (2^24-1 is the wire limit;
// we cap lower to bound allocation).
const maxFrameLen = 1 << 22

// Framer reads and writes SPDY frames on a byte stream, holding the
// session's shared header compression contexts. A Framer is not safe for
// concurrent use; sessions serialize through their write loop.
type Framer struct {
	w io.Writer
	r io.Reader

	compressTx   *headerCompressor
	decompressRx *headerDecompressor

	// BytesWritten / BytesRead account wire volume for tests and the
	// simulator's size oracle.
	BytesWritten int64
	BytesRead    int64
}

// NewFramer creates a framer over rw.
func NewFramer(rw io.ReadWriter) *Framer {
	return &Framer{
		w:            rw,
		r:            rw,
		compressTx:   newHeaderCompressor(),
		decompressRx: newHeaderDecompressor(),
	}
}

// ErrFramerReleased is returned by ReadFrame/WriteFrame after Release.
var ErrFramerReleased = errors.New("spdy: framer used after Release")

// Release returns the framer's zlib contexts to the shared pools, so
// short-lived sessions (one per page load in a live proxy) stop paying a
// fresh deflate window + dictionary allocation each. The framer is dead
// afterwards: ReadFrame and WriteFrame return ErrFramerReleased. Release
// is idempotent but, like the rest of Framer, not concurrency-safe —
// callers must quiesce both loops first.
func (f *Framer) Release() {
	if f.compressTx != nil {
		f.compressTx.release()
		f.compressTx = nil
	}
	if f.decompressRx != nil {
		f.decompressRx.release()
		f.decompressRx = nil
	}
}

func (f *Framer) writeAll(b []byte) error {
	n, err := f.w.Write(b)
	f.BytesWritten += int64(n)
	return err
}

// wire is a frame laid out for transmission: the first four header
// bytes, the flags, and the body — up to the compressed name/value block
// of headers when block is set. WriteFrame sends it and SizeOracle
// measures it, so the two cannot disagree about a frame's layout.
type wire struct {
	head    uint32
	flags   uint8
	body    []byte
	headers Headers
	block   bool
}

// streamID32 is a stream ID as the first field of a control frame body.
func streamID32(id uint32) []byte {
	return binary.BigEndian.AppendUint32(nil, id&0x7fffffff)
}

func layout(fr Frame) (w wire, err error) {
	fin := false
	switch fr := fr.(type) {
	case *DataFrame:
		return layout(*fr)
	case *SynStream:
		return layout(*fr)
	case *SynReply:
		return layout(*fr)
	case DataFrame:
		if len(fr.Data) > maxFrameLen {
			return w, ErrFrameTooLarge
		}
		w, fin = wire{head: fr.StreamID & 0x7fffffff, body: fr.Data}, fr.Fin
	case SynStream:
		w, fin = wire{body: make([]byte, 10), headers: fr.Headers, block: true}, fr.Fin
		binary.BigEndian.PutUint32(w.body[0:4], fr.StreamID&0x7fffffff)
		binary.BigEndian.PutUint32(w.body[4:8], fr.AssocID&0x7fffffff)
		w.body[8] = byte(fr.Priority) << 5 // body[9] is the credential slot
	case SynReply:
		w, fin = wire{body: streamID32(fr.StreamID), headers: fr.Headers, block: true}, fr.Fin
	case HeadersFrame:
		w, fin = wire{body: streamID32(fr.StreamID), headers: fr.Headers, block: true}, fr.Fin
	case RstStream:
		w.body = binary.BigEndian.AppendUint32(streamID32(fr.StreamID), fr.Status)
	case SettingsFrame:
		w.body = binary.BigEndian.AppendUint32(nil, uint32(len(fr.Settings)))
		for _, s := range fr.Settings {
			w.body = binary.BigEndian.AppendUint32(w.body, uint32(s.Flags)<<24|s.ID&0xffffff)
			w.body = binary.BigEndian.AppendUint32(w.body, s.Value)
		}
	case Ping:
		w.body = binary.BigEndian.AppendUint32(nil, fr.ID)
	case Goaway:
		w.body = binary.BigEndian.AppendUint32(streamID32(fr.LastStreamID), fr.Status)
	case WindowUpdate:
		w.body = binary.BigEndian.AppendUint32(streamID32(fr.StreamID), fr.Delta&0x7fffffff)
	default:
		return w, fmt.Errorf("spdy: cannot write frame type %T", fr)
	}
	if typ := fr.frameType(); typ >= 0 {
		w.head = (0x8000|Version)<<16 | uint32(typ)
	}
	if fin {
		w.flags = FlagFin
	}
	return w, nil
}

// WriteFrame serializes one frame.
func (f *Framer) WriteFrame(fr Frame) error {
	if f.compressTx == nil {
		return ErrFramerReleased
	}
	w, err := layout(fr)
	if err != nil {
		return err
	}
	if w.block {
		w.body = append(w.body, f.compressTx.Compress(w.headers)...)
	}
	var h [8]byte
	binary.BigEndian.PutUint32(h[0:4], w.head)
	h[4] = w.flags
	h[5] = byte(len(w.body) >> 16)
	h[6] = byte(len(w.body) >> 8)
	h[7] = byte(len(w.body))
	if err := f.writeAll(h[:]); err != nil {
		return err
	}
	return f.writeAll(w.body)
}

// fixedLen is the length of each control frame's body before its header
// block or SETTINGS entries, as layout writes it: the shortest payload
// ReadFrame accepts, and what SizeOracle adds to a compressed block.
var fixedLen = [...]int{TypeSynStream: 10, TypeSynReply: 4, TypeRstStream: 8, TypeSettings: 4,
	TypePing: 4, TypeGoaway: 8, TypeHeaders: 4, TypeWindowUpdate: 8}

// ReadFrame reads and parses the next frame from the stream.
func (f *Framer) ReadFrame() (Frame, error) {
	if f.decompressRx == nil {
		return nil, ErrFramerReleased
	}
	var head [8]byte
	if _, err := io.ReadFull(f.r, head[:]); err != nil {
		return nil, err
	}
	f.BytesRead += 8
	length := int(head[5])<<16 | int(head[6])<<8 | int(head[7])
	if length > maxFrameLen {
		return nil, ErrFrameTooLarge
	}
	payload := make([]byte, length)
	if _, err := io.ReadFull(f.r, payload); err != nil {
		return nil, fmt.Errorf("spdy: short frame payload: %w", err)
	}
	f.BytesRead += int64(length)
	fin := head[4]&FlagFin != 0

	if head[0]&0x80 == 0 {
		// Data frame.
		streamID := binary.BigEndian.Uint32(head[0:4]) & 0x7fffffff
		return DataFrame{StreamID: streamID, Fin: fin, Data: payload}, nil
	}

	version := binary.BigEndian.Uint16(head[0:2]) & 0x7fff
	if version != Version {
		return nil, fmt.Errorf("spdy: unsupported version %d", version)
	}
	frameType := int(binary.BigEndian.Uint16(head[2:4]))
	if frameType >= len(fixedLen) || fixedLen[frameType] == 0 {
		return nil, fmt.Errorf("spdy: unknown control frame type %d", frameType)
	}
	if len(payload) < fixedLen[frameType] {
		return nil, fmt.Errorf("spdy: short control frame type %d: %d bytes", frameType, len(payload))
	}
	first := binary.BigEndian.Uint32(payload[0:4])
	id := first & 0x7fffffff // most frames start with a stream ID

	switch frameType {
	case TypeSynStream, TypeSynReply, TypeHeaders:
		h, err := f.decompressRx.Decompress(payload[fixedLen[frameType]:])
		if err != nil {
			return nil, err
		}
		switch frameType {
		case TypeSynReply:
			return SynReply{StreamID: id, Fin: fin, Headers: h}, nil
		case TypeHeaders:
			return HeadersFrame{StreamID: id, Fin: fin, Headers: h}, nil
		}
		return SynStream{
			StreamID: id,
			AssocID:  binary.BigEndian.Uint32(payload[4:8]) & 0x7fffffff,
			Priority: Priority(payload[8] >> 5),
			Fin:      fin,
			Headers:  h,
		}, nil
	case TypeRstStream:
		return RstStream{StreamID: id, Status: binary.BigEndian.Uint32(payload[4:8])}, nil
	case TypeSettings:
		if int(first)*8+4 > len(payload) {
			return nil, errors.New("spdy: SETTINGS count overruns payload")
		}
		sf := SettingsFrame{Settings: make([]Setting, first)}
		for i := range sf.Settings {
			entry := payload[4+8*i:]
			sf.Settings[i] = Setting{
				Flags: entry[0],
				ID:    binary.BigEndian.Uint32(entry[0:4]) & 0xffffff,
				Value: binary.BigEndian.Uint32(entry[4:8]),
			}
		}
		return sf, nil
	case TypePing:
		return Ping{ID: first}, nil
	case TypeGoaway:
		return Goaway{LastStreamID: id, Status: binary.BigEndian.Uint32(payload[4:8])}, nil
	default: // TypeWindowUpdate
		return WindowUpdate{StreamID: id, Delta: binary.BigEndian.Uint32(payload[4:8]) & 0x7fffffff}, nil
	}
}
