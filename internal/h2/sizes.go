// Package h2 models the HTTP/2 framing-layer costs that differ from
// SPDY/3: HPACK header compression (a shared static table plus a
// per-connection dynamic table, instead of SPDY's zlib stream) and
// credit-based per-stream flow control (WINDOW_UPDATE), which SPDY/3
// as deployed in 2013 did not enforce per stream.
//
// Like internal/spdy, nothing here touches real sockets; the package
// prices frames and enforces window arithmetic so the simulator charges
// byte-accurate overheads. Everything is deterministic: map state is
// only ever looked up by key, never iterated (the HPACK dynamic table's
// eviction order is a ring beside its maps).
package h2

import "strconv"

// Frame-size constants (RFC 7540 §4.1): every frame carries a 9-octet
// header (3 length + 1 type + 1 flags + 4 stream id).
const (
	// FrameHeaderSize is the fixed HTTP/2 frame header.
	FrameHeaderSize = 9
	// DataFrameOverhead is the per-DATA-frame cost — the frame header
	// alone (no padding modeled). SPDY's equivalent is 8.
	DataFrameOverhead = FrameHeaderSize
	// WindowUpdateFrameSize is a WINDOW_UPDATE frame: header + 4-octet
	// increment.
	WindowUpdateFrameSize = FrameHeaderSize + 4
	// SettingsAckSize is an empty SETTINGS (or its ACK).
	SettingsAckSize = FrameHeaderSize
)

// staticNames is the HPACK static-table name set relevant to the
// simulated header vocabularies (RFC 7541 Appendix A). A name present
// here never costs literal bytes, only its value does.
var staticNames = map[string]bool{
	":authority":      true,
	":method":         true,
	":path":           true,
	":scheme":         true,
	":status":         true,
	"accept":          true,
	"accept-encoding": true,
	"accept-language": true,
	"content-length":  true,
	"content-type":    true,
	"server":          true,
	"user-agent":      true,
}

// field is one header field, the key of both HPACK tables. Name and
// value are kept apart: a joined key would have to copy both on every
// lookup, and would conflate ("a\x00b", "c") with ("a", "b\x00c").
type field struct{ name, value string }

// staticPairs are full (name, value) entries of the static table: these
// encode in a single indexed byte from the very first use.
var staticPairs = map[field]bool{
	{":method", "GET"}:                  true,
	{":scheme", "http"}:                 true,
	{":scheme", "https"}:                true,
	{":status", "200"}:                  true,
	{"accept-encoding", "gzip,deflate"}: true,
}

// hpackDynamicEntries bounds the modeled dynamic table by entry count —
// a stand-in for the 4096-octet SETTINGS_HEADER_TABLE_SIZE default.
const hpackDynamicEntries = 128

// HeaderSizer prices HPACK-encoded header blocks on one connection
// direction. The first emission of a (name, value) pair pays literal
// bytes and installs it in the dynamic table; repeats cost one indexed
// byte — the h2 analogue of the warmed zlib dictionary that
// spdy.SizeOracle models, without SPDY's cross-stream compression of
// values it has never seen.
type HeaderSizer struct {
	// The dynamic table, in two maps: a content-length is keyed by the
	// length itself, so installing one builds no string; every other
	// field by its name and value.
	dyn     map[field]struct{}
	lengths map[int64]struct{}
	// ring holds the dynamic table's entries in insertion order for FIFO
	// eviction; once the table is full, next is its oldest entry. The
	// table never holds an entry twice, so the two maps' sizes count the
	// live slots.
	ring [hpackDynamicEntries]entry
	next int
}

// entry is one slot of the dynamic table: a field, or with isLength a
// content-length of the given value.
type entry struct {
	f        field
	length   int64
	isLength bool
}

// NewHeaderSizer returns a sizer with an empty dynamic table.
func NewHeaderSizer() *HeaderSizer {
	return &HeaderSizer{
		dyn:     make(map[field]struct{}, hpackDynamicEntries),
		lengths: make(map[int64]struct{}),
	}
}

// FieldSize prices one header field and updates the dynamic table. A
// content-length written as ResponseSize writes it — canonical decimal —
// is the entry ResponseSize installs; any other spelling is a field of
// its own.
func (h *HeaderSizer) FieldSize(name, value string) int {
	if name == "content-length" {
		if n, ok := canonicalLength(value); ok {
			return h.lengthSize(n)
		}
	}
	f := field{name, value}
	if _, ok := h.dyn[f]; ok || staticPairs[f] {
		return 1 // indexed header field
	}
	// Literal with incremental indexing: prefix byte, then value (length
	// prefix + octets), plus name octets when the name is not indexed.
	n := 1 + 1 + len(f.value)
	if !staticNames[f.name] {
		n += 1 + len(f.name)
	}
	h.dyn[f] = struct{}{}
	h.install(entry{f: f})
	return n
}

// lengthSize prices a content-length of n — one indexed byte if the
// table holds it, else a literal of its decimal digits under the static
// name — and installs it on a miss.
func (h *HeaderSizer) lengthSize(n int64) int {
	if _, ok := h.lengths[n]; ok {
		return 1
	}
	h.lengths[n] = struct{}{}
	h.install(entry{length: n, isLength: true})
	var buf [20]byte
	return 1 + 1 + len(strconv.AppendInt(buf[:0], n, 10))
}

// install puts e, just added to its map, in the ring — literal with
// incremental indexing — evicting the oldest entry of a full table.
func (h *HeaderSizer) install(e entry) {
	slot := &h.ring[h.next]
	if len(h.dyn)+len(h.lengths) > hpackDynamicEntries {
		if slot.isLength {
			delete(h.lengths, slot.length)
		} else {
			delete(h.dyn, slot.f)
		}
	}
	*slot = e
	h.next = (h.next + 1) % hpackDynamicEntries
}

// canonicalLength reports the length value spells the way ResponseSize
// writes one: the number whose decimal form is value exactly.
func canonicalLength(value string) (int64, bool) {
	n, err := strconv.ParseInt(value, 10, 64)
	var buf [20]byte
	return n, err == nil && string(strconv.AppendInt(buf[:0], n, 10)) == value
}

// RequestSize prices a HEADERS frame for a GET request carrying the
// same field vocabulary the SPDY path sends (minus :version, which
// HTTP/2 drops), including the 9-octet frame header.
func (h *HeaderSizer) RequestSize(method, scheme, host, path, userAgent string) int {
	n := FrameHeaderSize
	n += h.FieldSize(":method", method)
	n += h.FieldSize(":scheme", scheme)
	n += h.FieldSize(":authority", host)
	n += h.FieldSize(":path", path)
	n += h.FieldSize("accept", "text/html,application/xhtml+xml,application/xml;q=0.9,*/*;q=0.8")
	n += h.FieldSize("accept-encoding", "gzip,deflate,sdch")
	n += h.FieldSize("accept-language", "en-US,en;q=0.8")
	if userAgent != "" {
		n += h.FieldSize("user-agent", userAgent)
	}
	return n
}

// ResponseSize prices the response HEADERS frame matching
// spdy.ResponseHeaders' vocabulary.
func (h *HeaderSizer) ResponseSize(status, contentType string, contentLength int64) int {
	n := FrameHeaderSize
	n += h.FieldSize(":status", statusCode(status))
	n += h.FieldSize("content-type", contentType)
	n += h.lengthSize(contentLength)
	n += h.FieldSize("server", "spdier-origin/1.0")
	return n
}

// statusCode reduces a reason-phrase status ("200 OK") to the bare code
// HTTP/2 transmits.
func statusCode(status string) string {
	for i := 0; i < len(status); i++ {
		if status[i] == ' ' {
			return status[:i]
		}
	}
	return status
}
