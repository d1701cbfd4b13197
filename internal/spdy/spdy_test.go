package spdy

import (
	"bytes"
	"io"
	"strings"
	"testing"
	"testing/quick"
)

func TestPriorityQueueStrictOrder(t *testing.T) {
	var q PriorityQueue[string]
	q.Push(4, "img1")
	q.Push(0, "html")
	q.Push(2, "js")
	q.Push(4, "img2")
	q.Push(1, "css")
	want := []string{"html", "css", "js", "img1", "img2"}
	for _, w := range want {
		got, ok := q.Pop()
		if !ok || got != w {
			t.Fatalf("pop %q, want %q", got, w)
		}
	}
	if _, ok := q.Pop(); ok {
		t.Fatal("pop from empty queue")
	}
}

func TestPriorityQueuePeek(t *testing.T) {
	var q PriorityQueue[int]
	if _, ok := q.Peek(); ok {
		t.Fatal("peek on empty")
	}
	q.Push(3, 42)
	v, ok := q.Peek()
	if !ok || v != 42 || q.Len() != 1 {
		t.Fatal("peek must not consume")
	}
}

func TestPriorityQueueClampsPriority(t *testing.T) {
	var q PriorityQueue[int]
	q.Push(Priority(200), 1) // clamps to MaxPriority
	q.Push(7, 2)
	a, _ := q.Pop()
	b, _ := q.Pop()
	if a != 1 || b != 2 {
		t.Fatalf("clamped priority broke FIFO: %d %d", a, b)
	}
}

func TestPriorityQueueProperty(t *testing.T) {
	// Popping drains items in non-decreasing priority, FIFO within a
	// class, and Len is always consistent.
	check := func(prios []uint8) bool {
		var q PriorityQueue[int]
		for i, p := range prios {
			q.Push(Priority(p%8), i)
		}
		if q.Len() != len(prios) {
			return false
		}
		lastPrio := -1
		lastIdxByPrio := map[int]int{}
		for range prios {
			idx, ok := q.Pop()
			if !ok {
				return false
			}
			p := int(prios[idx] % 8)
			if p < lastPrio {
				return false // priority went backwards
			}
			if prev, seen := lastIdxByPrio[p]; seen && idx < prev {
				return false // not FIFO within class
			}
			lastIdxByPrio[p] = idx
			lastPrio = p
		}
		return q.Len() == 0
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestPriorityForType(t *testing.T) {
	if PriorityForType("html") >= PriorityForType("css") ||
		PriorityForType("css") >= PriorityForType("js") ||
		PriorityForType("js") >= PriorityForType("img") {
		t.Fatal("priority ordering html < css < js < img violated")
	}
}

func TestHeadersCloneAndAccessors(t *testing.T) {
	h := Headers{":method": "GET"}
	h.Set("Content-Type", "text/html")
	if h.Get("content-TYPE") != "text/html" {
		t.Fatal("case-insensitive get failed")
	}
	c := h.Clone()
	c.Set("x-extra", "1")
	if _, ok := h["x-extra"]; ok {
		t.Fatal("clone aliases original")
	}
}

func TestHeaderBlockRoundTripProperty(t *testing.T) {
	check := func(keys, vals []string) bool {
		h := Headers{}
		for i, k := range keys {
			if k == "" {
				continue
			}
			k = strings.ToLower(k)
			v := ""
			if i < len(vals) {
				v = vals[i]
			}
			h[k] = v
		}
		comp := newHeaderCompressor()
		dec := newHeaderDecompressor()
		block := comp.Compress(h)
		got, err := dec.Decompress(block)
		if err != nil {
			return false
		}
		if len(got) != len(h) {
			return false
		}
		for k, v := range h {
			if got[k] != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestSharedContextSequenceOfBlocks(t *testing.T) {
	comp := newHeaderCompressor()
	dec := newHeaderDecompressor()
	for i := 0; i < 50; i++ {
		h := RequestHeaders("GET", "http", "example.com", "/obj/"+strings.Repeat("x", i), "ua")
		got, err := dec.Decompress(comp.Compress(h))
		if err != nil {
			t.Fatalf("block %d: %v", i, err)
		}
		if got[":path"] != h[":path"] {
			t.Fatalf("block %d: path %q", i, got[":path"])
		}
	}
}

func TestReadFrameErrors(t *testing.T) {
	// Truncated header.
	f := NewFramer(bytes.NewBuffer([]byte{0x80, 0x03, 0x00}))
	if _, err := f.ReadFrame(); err == nil {
		t.Fatal("truncated header accepted")
	}
	// Unsupported version.
	var buf bytes.Buffer
	buf.Write([]byte{0x80, 0x02, 0x00, 0x01, 0x00, 0x00, 0x00, 0x0a})
	buf.Write(make([]byte, 10))
	f = NewFramer(&buf)
	if _, err := f.ReadFrame(); err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("bad version: %v", err)
	}
	// Unknown control type.
	buf.Reset()
	buf.Write([]byte{0x80, 0x03, 0x00, 0x63, 0x00, 0x00, 0x00, 0x00})
	f = NewFramer(&buf)
	if _, err := f.ReadFrame(); err == nil || !strings.Contains(err.Error(), "unknown") {
		t.Fatalf("unknown type: %v", err)
	}
	// Short SYN_STREAM payload.
	buf.Reset()
	buf.Write([]byte{0x80, 0x03, 0x00, 0x01, 0x00, 0x00, 0x00, 0x04})
	buf.Write(make([]byte, 4))
	f = NewFramer(&buf)
	if _, err := f.ReadFrame(); err == nil {
		t.Fatal("short SYN_STREAM accepted")
	}
}

type discardRW struct{}

func (discardRW) Write(p []byte) (int, error) { return len(p), nil }
func (discardRW) Read(p []byte) (int, error)  { return 0, io.EOF }

func TestWriteDataFrameTooLarge(t *testing.T) {
	f := NewFramer(discardRW{})
	err := f.WriteFrame(DataFrame{StreamID: 1, Data: make([]byte, maxFrameLen+1)})
	if err != ErrFrameTooLarge {
		t.Fatalf("err %v", err)
	}
}

func TestFramerByteAccounting(t *testing.T) {
	var buf bytes.Buffer
	tx := NewFramer(&buf)
	tx.WriteFrame(Ping{ID: 1})
	tx.WriteFrame(DataFrame{StreamID: 1, Data: []byte("hello")})
	if tx.BytesWritten != int64(buf.Len()) {
		t.Fatalf("wrote %d, accounted %d", buf.Len(), tx.BytesWritten)
	}
	rx := NewFramer(&buf)
	rx.ReadFrame()
	rx.ReadFrame()
	if rx.BytesRead != tx.BytesWritten {
		t.Fatalf("read accounting %d vs %d", rx.BytesRead, tx.BytesWritten)
	}
}

func TestMultiValueHeadersNulJoined(t *testing.T) {
	h := Headers{"set-cookie": "a=1\x00b=2"}
	comp := newHeaderCompressor()
	dec := newHeaderDecompressor()
	got, err := dec.Decompress(comp.Compress(h))
	if err != nil {
		t.Fatal(err)
	}
	if got["set-cookie"] != "a=1\x00b=2" {
		t.Fatalf("NUL-joined values corrupted: %q", got["set-cookie"])
	}
}

func TestDictionaryHelpsCompression(t *testing.T) {
	h := RequestHeaders("GET", "http", "www.example.com", "/index.html", "Mozilla/5.0")
	withDict := newHeaderCompressor().Compress(h)
	plain := appendPlain(nil, h)
	if len(withDict) >= len(plain) {
		t.Fatalf("dictionary compression ineffective: %d vs %d plain", len(withDict), len(plain))
	}
}
