package spdy

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"reflect"
	"testing"
)

func roundTrip(t *testing.T, frames ...Frame) []Frame {
	t.Helper()
	var buf bytes.Buffer
	tx := NewFramer(&buf)
	for _, fr := range frames {
		if err := tx.WriteFrame(fr); err != nil {
			t.Fatalf("write %T: %v", fr, err)
		}
	}
	rx := NewFramer(&buf)
	out := make([]Frame, 0, len(frames))
	for range frames {
		fr, err := rx.ReadFrame()
		if err != nil {
			t.Fatalf("read: %v", err)
		}
		out = append(out, fr)
	}
	return out
}

func TestSynStreamRoundTrip(t *testing.T) {
	in := SynStream{
		StreamID: 1,
		Priority: 2,
		Fin:      true,
		Headers:  RequestHeaders("GET", "http", "example.com", "/index.html", "spdier-test"),
	}
	out := roundTrip(t, in)
	got, ok := out[0].(SynStream)
	if !ok {
		t.Fatalf("got %T", out[0])
	}
	if got.StreamID != 1 || got.Priority != 2 || !got.Fin {
		t.Fatalf("fields mismatch: %+v", got)
	}
	if !reflect.DeepEqual(got.Headers, in.Headers) {
		t.Fatalf("headers mismatch:\n got %v\nwant %v", got.Headers, in.Headers)
	}
}

func TestHeaderCompressionContextShrinksSecondRequest(t *testing.T) {
	o := NewSizeOracle()
	h1 := RequestHeaders("GET", "http", "news.example.com", "/", "Mozilla/5.0 Chrome/23")
	h2 := RequestHeaders("GET", "http", "news.example.com", "/logo.png", "Mozilla/5.0 Chrome/23")
	s1 := o.FrameSize(SynStream{StreamID: 1, Headers: h1})
	s2 := o.FrameSize(SynStream{StreamID: 3, Headers: h2})
	if s2 >= s1 {
		t.Fatalf("second request should compress smaller: first=%d second=%d", s1, s2)
	}
	if s2 > 200 {
		t.Fatalf("warm-context request should be small, got %d bytes", s2)
	}
	t.Logf("first=%dB second=%dB", s1, s2)
}

func TestAllFrameTypesRoundTrip(t *testing.T) {
	frames := []Frame{
		SynStream{StreamID: 1, Priority: 0, Headers: Headers{":method": "GET", ":path": "/"}},
		SynReply{StreamID: 1, Headers: Headers{":status": "200 OK"}},
		DataFrame{StreamID: 1, Data: []byte("hello world")},
		DataFrame{StreamID: 1, Fin: true, Data: []byte{}},
		RstStream{StreamID: 3, Status: StatusCancel},
		SettingsFrame{Settings: []Setting{{ID: 4, Value: 100}, {ID: 7, Value: 65536}}},
		Ping{ID: 42},
		HeadersFrame{StreamID: 1, Headers: Headers{"x-extra": "1"}},
		WindowUpdate{StreamID: 1, Delta: 65536},
		Goaway{LastStreamID: 41, Status: 0},
	}
	out := roundTrip(t, frames...)
	for i, fr := range out {
		if reflect.TypeOf(fr) != reflect.TypeOf(frames[i]) {
			t.Fatalf("frame %d: got %T want %T", i, fr, frames[i])
		}
	}
	if d := out[2].(DataFrame); string(d.Data) != "hello world" || d.Fin {
		t.Fatalf("data frame mismatch: %+v", d)
	}
	if p := out[6].(Ping); p.ID != 42 {
		t.Fatalf("ping mismatch: %+v", p)
	}
	if w := out[8].(WindowUpdate); w.Delta != 65536 {
		t.Fatalf("window update mismatch: %+v", w)
	}
}

// everyFrame has every frame type in both the forms WriteFrame accepts,
// with the reserved bits of IDs set, flags on and off, an empty header
// set, an empty SETTINGS and an empty DATA.
func everyFrame() []Frame {
	return []Frame{
		SynStream{StreamID: 1, AssocID: 0x80000007, Priority: 3, Fin: true, Headers: RequestHeaders("GET", "http", "www.example.com", "/index.html", "Mozilla/5.0")},
		&SynStream{StreamID: 0xffffffff, Priority: 7, Headers: Headers{}},
		SynReply{StreamID: 1, Headers: ResponseHeaders("200 OK", "text/html; charset=utf-8", 12345)},
		&SynReply{StreamID: 3, Fin: true, Headers: Headers{":status": "404 Not Found", "set-cookie": "a=1\x00b=2"}},
		DataFrame{StreamID: 1, Data: []byte("hello world")},
		&DataFrame{StreamID: 0x80000001, Fin: true, Data: []byte{}},
		RstStream{StreamID: 0x80000003, Status: StatusCancel},
		SettingsFrame{Settings: []Setting{{Flags: 1, ID: 4, Value: 100}, {ID: 0x1ffffff, Value: 65536}}},
		SettingsFrame{},
		Ping{ID: 42},
		HeadersFrame{StreamID: 1, Fin: true, Headers: Headers{"x-extra": "1"}},
		WindowUpdate{StreamID: 1, Delta: 0xffffffff},
		Goaway{LastStreamID: 0x80000029, Status: 2},
	}
}

// TestFrameWireBytesPinned holds WriteFrame to the bytes it produced
// before its per-type bodies were folded into one layout: the digest was
// recorded from that code over the same frames.
func TestFrameWireBytesPinned(t *testing.T) {
	var buf bytes.Buffer
	tx := NewFramer(&buf)
	for _, fr := range everyFrame() {
		if err := tx.WriteFrame(fr); err != nil {
			t.Fatalf("write %T: %v", fr, err)
		}
	}
	sum := sha256.Sum256(buf.Bytes())
	const want = "833b4d70711edef409184ddb841e20e3546103624fa6fca860c8ab32911d1cdf"
	if got := hex.EncodeToString(sum[:]); buf.Len() != 472 || got != want {
		t.Fatalf("wire bytes moved: %d bytes, sha256 %s", buf.Len(), got)
	}
}

// TestEveryFrameReadsBackEqual decodes what WriteFrame wrote into the
// same values, reserved bits masked off.
func TestEveryFrameReadsBackEqual(t *testing.T) {
	want := []Frame{
		SynStream{StreamID: 1, AssocID: 7, Priority: 3, Fin: true, Headers: RequestHeaders("GET", "http", "www.example.com", "/index.html", "Mozilla/5.0")},
		SynStream{StreamID: 0x7fffffff, Priority: 7, Headers: Headers{}},
		SynReply{StreamID: 1, Headers: ResponseHeaders("200 OK", "text/html; charset=utf-8", 12345)},
		SynReply{StreamID: 3, Fin: true, Headers: Headers{":status": "404 Not Found", "set-cookie": "a=1\x00b=2"}},
		DataFrame{StreamID: 1, Data: []byte("hello world")},
		DataFrame{StreamID: 1, Fin: true, Data: []byte{}},
		RstStream{StreamID: 3, Status: StatusCancel},
		SettingsFrame{Settings: []Setting{{Flags: 1, ID: 4, Value: 100}, {ID: 0xffffff, Value: 65536}}},
		SettingsFrame{Settings: []Setting{}},
		Ping{ID: 42},
		HeadersFrame{StreamID: 1, Fin: true, Headers: Headers{"x-extra": "1"}},
		WindowUpdate{StreamID: 1, Delta: 0x7fffffff},
		Goaway{LastStreamID: 0x29, Status: 2},
	}
	for i, got := range roundTrip(t, everyFrame()...) {
		if !reflect.DeepEqual(got, want[i]) {
			t.Errorf("frame %d:\n got %#v\nwant %#v", i, got, want[i])
		}
	}
}
