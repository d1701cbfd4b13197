package spdy

import (
	"bytes"
	"compress/zlib"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"spdier/internal/spdy/flatesize"
)

// FuzzReadFrame feeds arbitrary bytes to the frame parser: it must never
// panic or over-allocate, only return frames or errors. Seeds include
// every valid frame type plus truncations.
func FuzzReadFrame(f *testing.F) {
	// Valid frames as seeds.
	var buf bytes.Buffer
	tx := NewFramer(&buf)
	seeds := []Frame{
		SynStream{StreamID: 1, Priority: 3, Headers: Headers{":method": "GET", ":path": "/"}},
		SynReply{StreamID: 1, Headers: Headers{":status": "200 OK"}},
		DataFrame{StreamID: 1, Fin: true, Data: []byte("payload")},
		RstStream{StreamID: 3, Status: StatusCancel},
		SettingsFrame{Settings: []Setting{{ID: 4, Value: 100}}},
		Ping{ID: 9},
		Goaway{LastStreamID: 5},
		HeadersFrame{StreamID: 1, Headers: Headers{"k": "v"}},
		WindowUpdate{StreamID: 1, Delta: 1024},
	}
	for _, fr := range seeds {
		buf.Reset()
		if err := tx.WriteFrame(fr); err != nil {
			f.Fatal(err)
		}
		f.Add(append([]byte(nil), buf.Bytes()...))
		// Truncated variant.
		if buf.Len() > 3 {
			f.Add(append([]byte(nil), buf.Bytes()[:buf.Len()/2]...))
		}
	}
	f.Add([]byte{})
	f.Add([]byte{0x80, 0x03, 0x00, 0x01, 0xff, 0xff, 0xff, 0xff})

	f.Fuzz(func(t *testing.T, data []byte) {
		rx := NewFramer(bytes.NewBuffer(data))
		for i := 0; i < 16; i++ {
			fr, err := rx.ReadFrame()
			if err != nil {
				return
			}
			if fr == nil {
				t.Fatal("nil frame without error")
			}
		}
	})
}

// FuzzHeaderDecompress feeds arbitrary bytes to the shared-context
// header decompressor; it must fail cleanly on garbage.
func FuzzHeaderDecompress(f *testing.F) {
	c := newHeaderCompressor()
	f.Add(c.Compress(Headers{":method": "GET"}))
	f.Add([]byte{})
	f.Add([]byte{0x78, 0x9c, 0x01})

	f.Fuzz(func(t *testing.T, data []byte) {
		d := newHeaderDecompressor()
		h, err := d.Decompress(data)
		if err != nil {
			return
		}
		if h == nil {
			t.Fatal("nil headers without error")
		}
		// Whatever decoded must survive the encoder: appendPlain and the
		// compressor's reused buffers against a fresh decompressor.
		c := newHeaderCompressor()
		back, err := newHeaderDecompressor().Decompress(c.Compress(h))
		if err != nil || !reflect.DeepEqual(back, h) {
			t.Fatalf("round trip of %q: %q, %v", h, back, err)
		}
	})
}

// FuzzSizeOnlyDeflate cuts the input into a session of blocks and holds
// the size-only deflater to the live compressor on every one of them:
// flatesize's size == len(zlib level 9 Write+Flush) on the same
// history. The first byte picks how the rest is cut and stretched, so
// that short inputs still reach window shifts, stored blocks and values
// longer than the window. Then the same Sizer is Reset and sizes a
// second session — the input rotated by half, so cut another way — held
// to a fresh zlib writer: whatever the first session left in the
// context, a reset one prices as a new one does.
func FuzzSizeOnlyDeflate(f *testing.F) {
	f.Add([]byte{})
	// The checked-in header-block corpus, each way of cutting it.
	corpus, err := filepath.Glob("testdata/fuzz/FuzzHeaderDecompress/*")
	if err != nil || len(corpus) == 0 {
		f.Fatalf("header-block corpus: %v, %d files", err, len(corpus))
	}
	for _, name := range corpus {
		data := readCorpusFile(f, name)
		for mode := byte(0); mode < 4; mode++ {
			f.Add(append([]byte{mode}, data...))
		}
	}
	// Table 1 sessions: the request blocks of the first 40 objects of a
	// session, as the simulator compresses them, 0xff between blocks.
	for seed := uint64(1); seed <= 3; seed++ {
		session := []byte{0}
		for _, obj := range table1Session(seed)[:40] {
			session = appendPlain(append(session, 0xff), RequestHeaders("GET", "http", obj.Domain, obj.Path, chromeUA))
		}
		f.Add(session)
	}
	// Bucket-mates: "aaoc", "ahxq" and "akab" hash apart in 17 bits
	// (15407, 31791, 80943) and share flatesize's 14-bit bucket, each
	// followed by a varying byte. The 28 KiB hold some 4,600 "aaoc", so
	// its chain runs past the 4,096 tries with the other two interleaved.
	rng := rand.New(rand.NewSource(1))
	mates := []string{"aaoc", "aaoc", "aaoc", "aaoc", "aaoc", "aaoc", "aaoc", "aaoc", "ahxq", "akab"}
	collide := []byte{0}
	for len(collide) < 28<<10 {
		collide = append(append(collide, mates[rng.Intn(len(mates))]...), byte(rng.Intn(0xff)))
		if rng.Intn(800) == 0 {
			collide = append(collide, 0xff)
		}
	}
	f.Add(collide)

	f.Fuzz(func(t *testing.T, data []byte) {
		sizer := flatesize.New(headerDictionary)
		matchZlib(t, "session", sizer, fuzzSession(data))
		half := len(data) / 2
		next := append(append([]byte{}, data[half:]...), data[:half]...)
		sizer.Reset(headerDictionary)
		matchZlib(t, "session after Reset", sizer, fuzzSession(next))
	})
}

// matchZlib sizes blocks on sizer and on a fresh zlib writer preset with
// the SPDY dictionary, and fails at the first block they price apart.
func matchZlib(t *testing.T, what string, sizer *flatesize.Sizer, blocks [][]byte) {
	t.Helper()
	var buf bytes.Buffer
	zw, err := zlib.NewWriterLevelDict(&buf, zlib.BestCompression, headerDictionary)
	if err != nil {
		t.Fatal(err)
	}
	for i, block := range blocks {
		buf.Reset()
		if _, err := zw.Write(block); err != nil {
			t.Fatal(err)
		}
		if err := zw.Flush(); err != nil {
			t.Fatal(err)
		}
		if got, want := sizer.BlockSize(block), buf.Len(); got != want {
			t.Fatalf("%s, block %d (%d bytes): size-only %d, zlib %d", what, i, len(block), got, want)
		}
	}
}

// readCorpusFile decodes a "go test fuzz v1" file holding one []byte.
func readCorpusFile(f *testing.F, name string) []byte {
	raw, err := os.ReadFile(name)
	if err != nil {
		f.Fatal(err)
	}
	_, lit, ok := strings.Cut(strings.TrimSpace(string(raw)), "\n[]byte(")
	if !ok {
		f.Fatalf("%s: not a []byte corpus file", name)
	}
	data, err := strconv.Unquote(strings.TrimSuffix(lit, ")"))
	if err != nil {
		f.Fatalf("%s: %v", name, err)
	}
	return []byte(data)
}

// fuzzSession turns fuzz input into blocks: mode 0 cuts at every 0xff
// byte, mode 1 into pieces whose lengths the data itself names, mode 2
// repeats the whole input until the 32 KiB window has shifted, and mode
// 3 blows every third block up past the 64 KiB the compressor buffers.
func fuzzSession(data []byte) [][]byte {
	if len(data) == 0 {
		return [][]byte{nil}
	}
	const window = 32 << 10
	mode, data := data[0]%4, data[1:]
	var blocks [][]byte
	switch mode {
	case 0:
		blocks = bytes.Split(data, []byte{0xff})
	case 1:
		for len(data) > 0 {
			n := 1 + int(data[0])
			if n > len(data) {
				n = len(data)
			}
			blocks = append(blocks, data[:n])
			data = data[n:]
		}
	case 2:
		for n := 0; n < 1500 && n*len(data) < 3*window; n++ {
			blocks = append(blocks, data)
		}
	case 3:
		for i, p := range bytes.Split(data, []byte{0xff}) {
			blocks = append(blocks, bytes.Repeat(p, 1+(i%3)*(2*window/(len(p)+1))))
		}
	}
	return blocks
}
