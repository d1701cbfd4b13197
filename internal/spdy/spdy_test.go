package spdy

import (
	"bytes"
	"io"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// quickConfig is a quick.Config whose cases are drawn from a fixed seed,
// which it logs: a case that fails is the same case on the next run, not
// one the clock chose.
func quickConfig(t *testing.T, maxCount int) *quick.Config {
	const seed = 1
	t.Logf("quick.Check: %d cases from seed %d", maxCount, seed)
	return &quick.Config{MaxCount: maxCount, Rand: rand.New(rand.NewSource(seed))}
}

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
	if err := quick.Check(check, quickConfig(t, 300)); err != nil {
		t.Fatal(err)
	}
}

// TestPriorityQueueInterleaved drives Push, Pop and Peek in random
// interleavings against the obvious model — one slice per class, popped
// from the front — through phases that drain the queue (classes rewind)
// and phases that keep it long (classes compact in place): strict order
// across classes, FIFO within one, Len exact, nothing lost or repeated.
func TestPriorityQueueInterleaved(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var q PriorityQueue[int]
	var model [MaxPriority + 1][]int
	modelLen, next := 0, 0
	front := func() (class int, ok bool) {
		for p := range model {
			if len(model[p]) > 0 {
				return p, true
			}
		}
		return 0, false
	}
	for step := 0; step < 200000; step++ {
		// Pushes outweigh pops in even 5,000-step phases and pops in odd ones.
		pushBias := 6
		if step/5000%2 == 1 {
			pushBias = 3
		}
		switch op := rng.Intn(10); {
		case op < pushBias:
			p := rng.Intn(int(MaxPriority) + 3) // some beyond the range: clamped
			q.Push(Priority(p), next)
			if p > int(MaxPriority) {
				p = int(MaxPriority)
			}
			model[p] = append(model[p], next)
			modelLen++
			next++
		case op < 9:
			got, ok := q.Pop()
			p, want := front()
			if ok != want || ok && got != model[p][0] {
				t.Fatalf("step %d: Pop = %d, %v; model front %v", step, got, ok, model[p])
			}
			if ok {
				model[p] = model[p][1:]
				modelLen--
			}
		default:
			got, ok := q.Peek()
			p, want := front()
			if ok != want || ok && got != model[p][0] {
				t.Fatalf("step %d: Peek = %d, %v; model front %v", step, got, ok, model[p])
			}
		}
		if q.Len() != modelLen {
			t.Fatalf("step %d: Len %d, model %d", step, q.Len(), modelLen)
		}
	}
}

// TestPriorityQueueReusesPoppedSpace: a class that never empties (a
// long-lived session's busiest priority) stays the size of what it
// holds, not of everything that has passed through it.
func TestPriorityQueueReusesPoppedSpace(t *testing.T) {
	var q PriorityQueue[int]
	for i := 0; i < 5; i++ {
		q.Push(2, i)
	}
	for i := 5; i < 100000; i++ {
		q.Push(2, i)
		if got, _ := q.Pop(); got != i-5 {
			t.Fatalf("pop %d, want %d", got, i-5)
		}
	}
	if c := q.classes[2]; cap(c.items) > 32 || q.Len() != 5 {
		t.Fatalf("a class holding 5 items has %d slots, Len %d", cap(c.items), q.Len())
	}
}

// TestPriorityQueueLoneItemDoesNotRegrow is the multiplexed pump's
// pattern: a class that holds one task at a time, pushed back after
// every chunk.
func TestPriorityQueueLoneItemDoesNotRegrow(t *testing.T) {
	var q PriorityQueue[*int]
	item := new(int)
	q.Push(4, item)
	q.Pop()
	if n := testing.AllocsPerRun(100, func() {
		q.Push(4, item)
		q.Pop()
	}); n != 0 {
		t.Fatalf("push+pop of a lone item allocates %v objects", n)
	}
	if q.classes[4].items[:1][0] != nil {
		t.Fatal("a popped slot still holds its item")
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
	if err := quick.Check(check, quickConfig(t, 100)); err != nil {
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
