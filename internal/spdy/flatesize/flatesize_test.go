package flatesize

import (
	"bytes"
	"compress/zlib"
	"math/rand"
	"testing"
	"unsafe"
)

// reference is the stream the Sizer claims to price: compress/zlib at
// level 9 with a preset dictionary, one Write and one Flush per block.
// (spdy's FuzzSizeOnlyDeflate holds the two together on fuzzed sessions
// under the real SPDY dictionary.)
type reference struct {
	buf bytes.Buffer
	zw  *zlib.Writer
}

func newReference(t testing.TB, dict []byte) *reference {
	r := &reference{}
	zw, err := zlib.NewWriterLevelDict(&r.buf, zlib.BestCompression, dict)
	if err != nil {
		t.Fatal(err)
	}
	r.zw = zw
	return r
}

func (r *reference) blockSize(t testing.TB, p []byte) int {
	before := r.buf.Len()
	if _, err := r.zw.Write(p); err != nil {
		t.Fatal(err)
	}
	if err := r.zw.Flush(); err != nil {
		t.Fatal(err)
	}
	n := r.buf.Len() - before
	r.buf.Reset()
	return n
}

// checkSession prices blocks with both and fails at the first block
// whose sizes differ.
func checkSession(t testing.TB, dict []byte, blocks [][]byte) {
	t.Helper()
	s, ref := New(dict), newReference(t, dict)
	for i, p := range blocks {
		if got, want := s.BlockSize(p), ref.blockSize(t, p); got != want {
			t.Fatalf("block %d of %d (%d bytes): sizer %d, zlib %d", i, len(blocks), len(p), got, want)
		}
	}
}

var testDict = []byte("\x00\x00\x00\x07options\x00\x00\x00\x03get\x00\x00\x00\x06accept\x00\x00\x00\x0auser-agent" +
	"\x00\x00\x00\x08HTTP/1.1\x00\x00\x00\x09text/html\x00\x00\x00\x0ccontent-type")

func random(rng *rand.Rand, n int) []byte {
	p := make([]byte, n)
	rng.Read(p)
	return p
}

// text draws n bytes from a small alphabet with long repeats: many
// matches at many distances.
func text(rng *rand.Rand, n int) []byte {
	words := []string{"accept", "-encoding", "gzip,deflate", "/images/", "www.", ".example.com", "\x00\x00\x00", "HTTP/1.1", "0123456789", "q=0.8"}
	var p []byte
	for len(p) < n {
		if rng.Intn(4) == 0 {
			p = append(p, byte('a'+rng.Intn(26)))
		} else {
			p = append(p, words[rng.Intn(len(words))]...)
		}
	}
	return p[:n]
}

func TestBlockSizeMatchesZlib(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	repeat := func(p []byte, n int) [][]byte {
		out := make([][]byte, n)
		for i := range out {
			out[i] = p
		}
		return out
	}
	mixed := func(n int) [][]byte {
		out := make([][]byte, n)
		for i := range out {
			switch rng.Intn(4) {
			case 0:
				out[i] = random(rng, rng.Intn(300))
			default:
				out[i] = text(rng, rng.Intn(400))
			}
		}
		return out
	}
	for _, tc := range []struct {
		name   string
		dict   []byte
		blocks [][]byte
	}{
		{"empty blocks", testDict, [][]byte{nil, {}, nil}},
		{"no dictionary", nil, mixed(50)},
		{"tiny blocks", testDict, [][]byte{{1}, {1, 2}, {1, 2, 3}, {1, 2, 3, 4}, {1, 2, 3, 4, 5}}},
		{"text session", testDict, mixed(400)},
		// 1,500 blocks of ~110 bytes: the 32 KiB window shifts five times.
		{"window shifts", testDict, repeat(text(rng, 110), 1500)},
		{"incompressible: stored blocks", testDict, [][]byte{random(rng, 64), random(rng, 1000), random(rng, 20000), text(rng, 100)}},
		// All-distinct 4-grams: literals only, so a full block's worth of
		// tokens ends mid-Write and the next block starts unaligned.
		{"more than 16,384 tokens", testDict, [][]byte{random(rng, 40000), text(rng, 50), random(rng, 17000)}},
		// Matches and literals mixed: some of the full blocks end on a match.
		{"full blocks ending on a match", testDict, [][]byte{text(rng, 600000)}},
		{"long matches", testDict, [][]byte{bytes.Repeat([]byte("ab"), 5000), bytes.Repeat([]byte{0}, 70000), text(rng, 300)}},
		{"value longer than the window", testDict, [][]byte{text(rng, 70000), text(rng, 200), text(rng, 140000), random(rng, 66000), text(rng, 10)}},
		{"oversized dictionary", text(rng, 40000), mixed(20)},
	} {
		t.Run(tc.name, func(t *testing.T) { checkSession(t, tc.dict, tc.blocks) })
	}
}

// TestHashOffsetRebase runs a stream past maxHashOffset (16 MiB of
// input), where the chains are re-based, and then on through varied
// blocks that walk them, holding every match findMatch finds, its search
// trees' included, to the walk's. The 16 MiB repeat with a period inside
// the window, so nearly all of it is maximal matches and goes by quickly.
func TestHashOffsetRebase(t *testing.T) {
	stop := checkEveryQuery(t)
	defer stop()
	rng := rand.New(rand.NewSource(2))
	period := text(rng, 20000)
	var blocks [][]byte
	for total := 0; total < maxHashOffset+1<<20; total += 3 * len(period) {
		blocks = append(blocks, bytes.Repeat(period, 3))
	}
	for i := 0; i < 40; i++ {
		blocks = append(blocks, text(rng, 100+rng.Intn(3000)), period[rng.Intn(10000):][:rng.Intn(5000)])
	}
	checkSession(t, testDict, blocks)
}

func TestMatchLen(t *testing.T) {
	a := []byte("0123456789abcdefghijklmnopqrstuvwxyz")
	for max := 0; max <= len(a); max++ {
		for diff := 0; diff <= max; diff++ {
			b := append([]byte(nil), a...)
			if diff < len(b) {
				b[diff] ^= 0x80
			}
			want := diff
			if want > max {
				want = max
			}
			if got := matchLen(a, b, max); got != want {
				t.Fatalf("matchLen(max %d, first difference %d) = %d", max, diff, got)
			}
		}
	}
}

func TestBlockSizeDoesNotAllocate(t *testing.T) {
	s := New(testDict)
	p := text(rand.New(rand.NewSource(3)), 200)
	if n := testing.AllocsPerRun(100, func() { s.BlockSize(p) }); n != 0 {
		t.Fatalf("BlockSize allocates %v objects per call", n)
	}
}

// TestResetIsNew: a Sizer that has sized blocks past a window shift and
// is then Reset is, field for field, the Sizer New returns — with the
// dictionary and without.
func TestResetIsNew(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	s := New(testDict)
	for i := 0; i < 40; i++ {
		s.BlockSize(text(rng, 2000))
	}
	for _, dict := range [][]byte{testDict, nil} {
		s.Reset(dict)
		if *s != *New(dict) {
			t.Fatalf("Reset(%d-byte dict) differs from New", len(dict))
		}
	}
}

// TestSizerResetDoesNotAllocate: Reset clears the context in place.
func TestSizerResetDoesNotAllocate(t *testing.T) {
	s := New(testDict)
	p := text(rand.New(rand.NewSource(3)), 200)
	if n := testing.AllocsPerRun(20, func() {
		s.BlockSize(p)
		s.Reset(testDict)
	}); n != 0 {
		t.Fatalf("BlockSize+Reset allocates %v objects per call", n)
	}
}

// TestSizerFootprint: a Sizer is one object of the size measured when
// the chains' search trees were added (272,208 B with the tagged buckets
// alone, 730,960 B in the stdlib's layout), so that a field added later
// cannot silently multiply what every SPDY session costs (two contexts,
// one a direction).
func TestSizerFootprint(t *testing.T) {
	const measured, margin = 468824, 256
	if n := unsafe.Sizeof(Sizer{}); n > measured+margin {
		t.Errorf("Sizer is %d bytes, want at most %d", n, measured+margin)
	}
	if n := testing.AllocsPerRun(10, func() { New(testDict) }); n != 1 {
		t.Errorf("New makes %v allocations, want 1", n)
	}
}
