package flatesize

import (
	"math/rand"
	"slices"
	"testing"
)

// checkEveryFloor holds every block's dynamic floor to its dynamic size,
// which size then builds the codes for whether the floor settles the
// block or not, until the returned func is called or the test ends. The
// func returns how many blocks were checked.
func checkEveryFloor(t testing.TB) (stop func() (blocks int)) {
	t.Helper()
	blocks := 0
	t.Cleanup(func() { checkFloor = nil })
	checkFloor = func(floor, dynamic int) {
		blocks++
		if floor > dynamic {
			t.Fatalf("block %d: floor %d bits, dynamic size %d", blocks, floor, dynamic)
		}
	}
	return func() int {
		checkFloor = nil
		return blocks
	}
}

// floorBytes reads a fuzz input a byte at a time, zeros past its end.
type floorBytes []byte

func (d *floorBytes) next() int {
	if len(*d) == 0 {
		return 0
	}
	b := (*d)[0]
	*d = (*d)[1:]
	return int(b)
}

// fill counts up to 30 used symbols below n into freq and used, in runs
// of adjacent symbols. Each run is a byte whose low two bits pick the
// gap before it (0–2, 3–10, 11–138 from the next byte, or 139 and up
// from the next byte), whose next bits its length (1–10), then a byte a
// symbol for its frequency (1 to 31 << 7).
func (d *floorBytes) fill(runs, n int, freq []int32, used []uint16) []uint16 {
	sym := 0
	for range runs {
		b := d.next()
		switch b & 3 {
		case 0:
			sym += b >> 2 % 3
		case 1:
			sym += 3 + b>>2%8
		case 2:
			sym += 11 + d.next()%128
		case 3:
			sym += 139 + d.next()
		}
		for range 1 + b>>4%10 {
			if sym >= n || len(used) == 30 {
				return used
			}
			f := d.next()
			freq[sym] = int32(1 + f&31<<(f>>5))
			used = append(used, uint16(sym))
			sym++
		}
	}
	return used
}

// floorHistogram fills w's histogram from data as size leaves it before
// pricing, with at least one symbol in each alphabet: its first byte is
// the number of literal runs (1–8) and of offset runs (0–4; with none,
// the phantom offset code 0 size adds to a block without matches). An
// offset run with no gap before it continues the last literal run in the
// code-length sequence.
func floorHistogram(w *blockSizer, data []byte) (literals, offsets []uint16) {
	d := floorBytes(data)
	h := d.next()
	literals = d.fill(1+h%8, maxNumLit, w.literalFreq[:], w.usedLiterals[:0])
	if len(literals) == 0 {
		// The runs skipped past the alphabet: every block has its
		// end-of-block symbol.
		w.literalFreq[endBlockMarker] = 1
		literals = append(literals, endBlockMarker)
	}
	offsets = d.fill(h>>3%5, offsetCodeCount, w.offsetFreq[:], w.usedOffsets[:0])
	if len(offsets) == 0 {
		w.offsetFreq[0] = 1
		offsets = append(offsets, 0)
	}
	return literals, offsets
}

// FuzzDynamicFloor holds dynamicFloor to the codes dynamicSize builds on
// arbitrary histograms, term by term: its lengths part to the symbols
// generateCodegen counts and the extra bits of their 17s and 18s, and its
// codes part to the rest of dynamicSize. The term checks see what the
// sum may hide: a run the floor does not join across the two alphabets
// costs a 16's two extra bits in the sequence, which the floor leaves
// out, so only the symbol count shows it.
func FuzzDynamicFloor(f *testing.F) {
	// Two symbols in each alphabet, every code 1 bit long.
	f.Add([]byte{0x08, 0x12, 20, 0xff, 0xfe, 0x10, 0xff, 0xfe})
	// Four literals and four offsets from code 0, every code 2 bits
	// long: one run of eight across the alphabets.
	f.Add([]byte{0x08, 0x30, 9, 9, 9, 9, 0x30, 9, 9, 9, 9})
	// No matches: the phantom offset after literals with gaps of every
	// class.
	f.Add([]byte{0x03, 0x41, 7, 7, 7, 7, 7, 0x12, 200, 1, 2, 0x93, 40, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 0x20, 5, 5, 5})
	// Frequencies that grow about as Fibonacci's do (1, 1, 2, 3, 5, …,
	// 3,969): lengths up to the 15-bit limit.
	f.Add([]byte{0x09, 0x90, 0, 0, 1, 2, 4, 7, 12, 20, 0x30, 0x3b,
		0x80, 0x56, 0x72, 0x7d, 0x98, 0xb3, 0xbf, 0xd9, 0xf4, 0xff,
		0x50, 1, 2, 3, 4, 5, 6})
	var w blockSizer
	f.Fuzz(func(t *testing.T, data []byte) {
		w = blockSizer{}
		literals, offsets := floorHistogram(&w, data)
		slices.Sort(literals)
		slices.Sort(offsets)
		lengths, codes := w.dynamicFloor(literals, offsets)
		dynamic := w.dynamicSize(literals, offsets)
		c := &w.codegenFreq
		sequence := int(c[17])*3 + int(c[18])*7
		for _, n := range c {
			sequence += int(n)
		}
		rest := dynamic - w.codegenEncoding.bitLength(c[:], codegenSymbols[:]) - int(c[16])*2 - int(c[17])*3 - int(c[18])*7
		if lengths > sequence || codes > rest || lengths+codes > dynamic {
			t.Fatalf("literals %v, offsets %v: floor %d + %d, dynamic size %d (sequence %d, rest %d)", literals, offsets, lengths, codes, dynamic, sequence, rest)
		}
	})
}

// TestLeastCodegens derives leastCodegens from codegenOrder: for n used
// symbols, the earliest place of a length from 1 to n−1 (1 for n ≤ 2).
func TestLeastCodegens(t *testing.T) {
	for n, got := range leastCodegens {
		longest := max(1, n-1)
		want := len(codegenOrder)
		for place, size := range codegenOrder {
			if size >= 1 && int(size) <= longest {
				want = min(want, place+1)
			}
		}
		if got != want {
			t.Errorf("leastCodegens[%d] = %d, want %d", n, got, want)
		}
	}
}

// TestCodesCountsTheBlocksBuilt: a block of 4,000 bytes of text, where
// the dynamic code can win, has its codes built; a block of one byte,
// which the floor settles, has not.
func TestCodesCountsTheBlocksBuilt(t *testing.T) {
	s := New(testDict)
	s.BlockSize(text(rand.New(rand.NewSource(4)), 4000))
	s.BlockSize([]byte("x"))
	if n := s.Codes(); n != 1 {
		t.Fatalf("codes built for %d blocks, want 1 (the text)", n)
	}
}
