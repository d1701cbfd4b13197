package spdy

import (
	"bytes"
	"compress/zlib"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync"
)

// Headers is a SPDY name/value block. Per SPDY/3, names are lowercase and
// multiple values for a name are NUL-joined into one string. Pseudo
// headers (":method", ":path", ":version", ":host", ":scheme", ":status")
// carry the request/status line.
type Headers map[string]string

// Clone returns a deep copy.
func (h Headers) Clone() Headers {
	out := make(Headers, len(h))
	for k, v := range h {
		out[k] = v
	}
	return out
}

// Get returns the value for name (names are matched lowercase).
func (h Headers) Get(name string) string { return h[strings.ToLower(name)] }

// Set assigns value to the lowercased name.
func (h Headers) Set(name, value string) { h[strings.ToLower(name)] = value }

// appendString appends s in the name/value block's encoding: a 32-bit
// length, then the bytes.
func appendString(dst []byte, s string) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(s)))
	return append(dst, s...)
}

// appendPlain appends the uncompressed SPDY/3 name/value block of h to
// dst: a 32-bit pair count, then length-prefixed name and value per
// pair, names in sorted order so that the encoding is deterministic.
func appendPlain(dst []byte, h Headers) []byte {
	var stack [16]string // a request carries 9 names: sorted without a heap slice
	names := stack[:0]
	for name := range h {
		i := len(names)
		names = append(names, name)
		for ; i > 0 && names[i-1] > name; i-- {
			names[i] = names[i-1]
		}
		names[i] = name
	}
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(h)))
	for _, name := range names {
		dst = appendString(appendString(dst, name), h[name])
	}
	return dst
}

// errHeaderBlock reports malformed name/value blocks.
var errHeaderBlock = errors.New("spdy: malformed header block")

// unmarshalPlain parses an uncompressed name/value block.
func unmarshalPlain(r io.Reader) (Headers, error) {
	var u32 [4]byte
	if _, err := io.ReadFull(r, u32[:]); err != nil {
		return nil, fmt.Errorf("%w: count: %v", errHeaderBlock, err)
	}
	count := binary.BigEndian.Uint32(u32[:])
	if count > 4096 {
		return nil, fmt.Errorf("%w: absurd pair count %d", errHeaderBlock, count)
	}
	read := func() (string, error) {
		if _, err := io.ReadFull(r, u32[:]); err != nil {
			return "", err
		}
		n := binary.BigEndian.Uint32(u32[:])
		if n > 1<<20 {
			return "", fmt.Errorf("%w: absurd string length %d", errHeaderBlock, n)
		}
		b := make([]byte, n)
		if _, err := io.ReadFull(r, b); err != nil {
			return "", err
		}
		return string(b), nil
	}
	h := make(Headers, count)
	for i := uint32(0); i < count; i++ {
		name, err := read()
		if err != nil {
			return nil, fmt.Errorf("%w: name: %v", errHeaderBlock, err)
		}
		value, err := read()
		if err != nil {
			return nil, fmt.Errorf("%w: value: %v", errHeaderBlock, err)
		}
		h[name] = value
	}
	return h, nil
}

// headerCompressor maintains the per-session zlib compression context.
// SPDY compresses all header blocks on a connection with one shared
// context, which is why the *second* request's headers shrink to a few
// dozen bytes — the redundancy the paper credits SPDY for removing.
type headerCompressor struct {
	plain []byte // reused uncompressed block
	buf   bytes.Buffer
	zw    *zlib.Writer
}

// compressorPool recycles zlib compression contexts across sessions.
// zlib.Writer.Reset restores the exact NewWriterLevelDict initial state
// (same level, same dictionary), so a pooled context produces output
// byte-identical to a fresh one.
var compressorPool = sync.Pool{New: func() any {
	c := &headerCompressor{}
	zw, err := zlib.NewWriterLevelDict(&c.buf, zlib.BestCompression, headerDictionary)
	if err != nil {
		panic("spdy: zlib init: " + err.Error())
	}
	c.zw = zw
	return c
}}

func newHeaderCompressor() *headerCompressor {
	c := compressorPool.Get().(*headerCompressor)
	c.buf.Reset()
	c.zw.Reset(&c.buf)
	return c
}

// release returns the context to the pool. The caller must not use it
// afterwards.
func (c *headerCompressor) release() { compressorPool.Put(c) }

// Compress returns the compressed encoding of h, flushed at a sync point
// so the receiver can decode the block without further input. The
// result is valid until the next Compress.
func (c *headerCompressor) Compress(h Headers) []byte {
	c.plain = appendPlain(c.plain[:0], h)
	c.buf.Reset()
	if _, err := c.zw.Write(c.plain); err != nil {
		panic("spdy: zlib write: " + err.Error())
	}
	if err := c.zw.Flush(); err != nil {
		panic("spdy: zlib flush: " + err.Error())
	}
	return c.buf.Bytes()
}

// headerDecompressor is the receive-side shared context.
type headerDecompressor struct {
	in bytes.Buffer
	zr io.ReadCloser
	// stale marks a pooled zr that still holds the previous session's
	// inflate state. The reset is deferred to the first Decompress because
	// zlib's Reset consumes the 2-byte stream header immediately, which is
	// only available once the first block has been buffered.
	stale bool
}

// decompressorPool recycles receive-side contexts across sessions.
var decompressorPool = sync.Pool{New: func() any { return &headerDecompressor{} }}

func newHeaderDecompressor() *headerDecompressor {
	d := decompressorPool.Get().(*headerDecompressor)
	d.in.Reset()
	d.stale = d.zr != nil
	return d
}

// release returns the context to the pool. The caller must not use it
// afterwards.
func (d *headerDecompressor) release() { decompressorPool.Put(d) }

// Decompress decodes one compressed block produced by a matching
// headerCompressor on the same session.
func (d *headerDecompressor) Decompress(block []byte) (Headers, error) {
	d.in.Write(block)
	if d.stale {
		if err := d.zr.(zlib.Resetter).Reset(&d.in, headerDictionary); err != nil {
			return nil, fmt.Errorf("spdy: zlib reader reset: %w", err)
		}
		d.stale = false
	}
	if d.zr == nil {
		zr, err := zlib.NewReaderDict(&d.in, headerDictionary)
		if err != nil {
			return nil, fmt.Errorf("spdy: zlib reader: %w", err)
		}
		d.zr = zr
	}
	h, err := unmarshalPlain(d.zr)
	if err != nil {
		return nil, err
	}
	return h, nil
}

// The fields every proxied GET carries besides its own URL, and every
// response besides its own type and length.
const (
	httpVersion    = "HTTP/1.1"
	acceptAny      = "text/html,application/xhtml+xml,application/xml;q=0.9,*/*;q=0.8"
	acceptEncoding = "gzip,deflate,sdch"
	acceptLanguage = "en-US,en;q=0.8"
	serverName     = "spdier-origin/1.0"
)

// RequestHeaders builds the SPDY/3 pseudo-header set for a proxied GET.
// SizeOracle.RequestSize prices the same set without building it.
func RequestHeaders(method, scheme, host, path, userAgent string) Headers {
	h := Headers{
		":method":         method,
		":scheme":         scheme,
		":host":           host,
		":path":           path,
		":version":        httpVersion,
		"accept":          acceptAny,
		"accept-encoding": acceptEncoding,
		"accept-language": acceptLanguage,
	}
	if userAgent != "" {
		h["user-agent"] = userAgent
	}
	return h
}

// ResponseHeaders builds the SPDY/3 pseudo-header set for a response.
// SizeOracle.ResponseSize prices the same set without building it.
func ResponseHeaders(status string, contentType string, contentLength int64) Headers {
	return Headers{
		":status":        status,
		":version":       httpVersion,
		"content-type":   contentType,
		"content-length": strconv.FormatInt(contentLength, 10),
		"server":         serverName,
	}
}
