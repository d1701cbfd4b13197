// Copyright 2009 The Go Authors. All rights reserved.
// Use of this source code is governed by a BSD-style
// license that can be found in the LICENSE file.

package flatesize

import (
	"math"
	"slices"
)

const (
	// The largest offset code.
	offsetCodeCount = 30

	// The special code used to mark the end of a block.
	endBlockMarker = 256

	// The first length code.
	lengthCodesStart = 257

	// The number of codegen codes.
	codegenCodeCount = 19
	badCode          = 255

	maxNumLit = 286
)

// The number of extra bits needed by length code X - LENGTH_CODES_START.
var lengthExtraBits = [...]int8{
	/* 257 */ 0, 0, 0,
	/* 260 */ 0, 0, 0, 0, 0, 1, 1, 1, 1, 2,
	/* 270 */ 2, 2, 2, 3, 3, 3, 3, 4, 4, 4,
	/* 280 */ 4, 5, 5, 5, 5, 0,
}

// offset code word extra bits.
var offsetExtraBits = [...]int8{
	0, 0, 0, 0, 1, 1, 2, 2, 3, 3,
	4, 4, 5, 5, 6, 6, 7, 7, 8, 8,
	9, 9, 10, 10, 11, 11, 12, 12, 13, 13,
}

// The odd order in which the codegen code sizes are written.
var codegenOrder = [...]uint32{16, 17, 18, 0, 8, 7, 9, 6, 10, 5, 11, 4, 12, 3, 13, 2, 14, 1, 15}

// The length code for length X (MIN_MATCH_LENGTH <= X <= MAX_MATCH_LENGTH)
// is lengthCodes[length - MIN_MATCH_LENGTH]
var lengthCodes = [...]uint8{
	0, 1, 2, 3, 4, 5, 6, 7, 8, 8,
	9, 9, 10, 10, 11, 11, 12, 12, 12, 12,
	13, 13, 13, 13, 14, 14, 14, 14, 15, 15,
	15, 15, 16, 16, 16, 16, 16, 16, 16, 16,
	17, 17, 17, 17, 17, 17, 17, 17, 18, 18,
	18, 18, 18, 18, 18, 18, 19, 19, 19, 19,
	19, 19, 19, 19, 20, 20, 20, 20, 20, 20,
	20, 20, 20, 20, 20, 20, 20, 20, 20, 20,
	21, 21, 21, 21, 21, 21, 21, 21, 21, 21,
	21, 21, 21, 21, 21, 21, 22, 22, 22, 22,
	22, 22, 22, 22, 22, 22, 22, 22, 22, 22,
	22, 22, 23, 23, 23, 23, 23, 23, 23, 23,
	23, 23, 23, 23, 23, 23, 23, 23, 24, 24,
	24, 24, 24, 24, 24, 24, 24, 24, 24, 24,
	24, 24, 24, 24, 24, 24, 24, 24, 24, 24,
	24, 24, 24, 24, 24, 24, 24, 24, 24, 24,
	25, 25, 25, 25, 25, 25, 25, 25, 25, 25,
	25, 25, 25, 25, 25, 25, 25, 25, 25, 25,
	25, 25, 25, 25, 25, 25, 25, 25, 25, 25,
	25, 25, 26, 26, 26, 26, 26, 26, 26, 26,
	26, 26, 26, 26, 26, 26, 26, 26, 26, 26,
	26, 26, 26, 26, 26, 26, 26, 26, 26, 26,
	26, 26, 26, 26, 27, 27, 27, 27, 27, 27,
	27, 27, 27, 27, 27, 27, 27, 27, 27, 27,
	27, 27, 27, 27, 27, 27, 27, 27, 27, 27,
	27, 27, 27, 27, 27, 28,
}

var offsetCodes = [...]uint8{
	0, 1, 2, 3, 4, 4, 5, 5, 6, 6, 6, 6, 7, 7, 7, 7,
	8, 8, 8, 8, 8, 8, 8, 8, 9, 9, 9, 9, 9, 9, 9, 9,
	10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10,
	11, 11, 11, 11, 11, 11, 11, 11, 11, 11, 11, 11, 11, 11, 11, 11,
	12, 12, 12, 12, 12, 12, 12, 12, 12, 12, 12, 12, 12, 12, 12, 12,
	12, 12, 12, 12, 12, 12, 12, 12, 12, 12, 12, 12, 12, 12, 12, 12,
	13, 13, 13, 13, 13, 13, 13, 13, 13, 13, 13, 13, 13, 13, 13, 13,
	13, 13, 13, 13, 13, 13, 13, 13, 13, 13, 13, 13, 13, 13, 13, 13,
	14, 14, 14, 14, 14, 14, 14, 14, 14, 14, 14, 14, 14, 14, 14, 14,
	14, 14, 14, 14, 14, 14, 14, 14, 14, 14, 14, 14, 14, 14, 14, 14,
	14, 14, 14, 14, 14, 14, 14, 14, 14, 14, 14, 14, 14, 14, 14, 14,
	14, 14, 14, 14, 14, 14, 14, 14, 14, 14, 14, 14, 14, 14, 14, 14,
	15, 15, 15, 15, 15, 15, 15, 15, 15, 15, 15, 15, 15, 15, 15, 15,
	15, 15, 15, 15, 15, 15, 15, 15, 15, 15, 15, 15, 15, 15, 15, 15,
	15, 15, 15, 15, 15, 15, 15, 15, 15, 15, 15, 15, 15, 15, 15, 15,
	15, 15, 15, 15, 15, 15, 15, 15, 15, 15, 15, 15, 15, 15, 15, 15,
}

// Returns the offset code corresponding to a specific offset. No offset
// reaches past the 32 KiB window, so the stdlib's third tier (off>>14)
// is not needed.
func offsetCode(off uint32) uint8 {
	if off < uint32(len(offsetCodes)) {
		return offsetCodes[off]
	}
	return offsetCodes[off>>7] + 14
}

// fixedLiteralLen is the code length RFC 1951 3.2.6 fixes for each
// literal/length symbol; every fixed offset code is 5 bits.
func fixedLiteralLen(ch int) int {
	switch {
	case ch < 144:
		return 8
	case ch < 256:
		return 9
	case ch < 280:
		return 7
	default:
		return 8
	}
}

const fixedOffsetLen = 5

// blockSizer stands where the stdlib has a token slice and a
// huffmanBitWriter: it keeps the histogram indexTokens would build from
// the tokens, and prices the block the way writeBlock chooses to write
// it.
//
// The stdlib walks whole alphabets (286 + 30 + 19 entries) several times
// a block. A SPDY header block after the session's first is a few dozen
// tokens over a handful of symbols, so this keeps the symbols a block
// has used and walks those: the same sums over the same non-zero
// entries, and the code-length sequence rebuilt from the used symbols
// and the gaps between them.
type blockSizer struct {
	tokens      int
	extraBits   int
	literalFreq [maxNumLit]int32
	offsetFreq  [offsetCodeCount]int32
	codegenFreq [codegenCodeCount]int32

	// The symbols with a non-zero frequency, in order of first use until
	// size sorts them.
	usedLiterals [maxNumLit]uint16
	usedOffsets  [offsetCodeCount]uint16
	numLiterals  int
	numOffsets   int

	literalEncoding huffmanEncoder
	offsetEncoding  huffmanEncoder
	codegenEncoding huffmanEncoder

	// The run of equal code lengths generateCodegen is gathering.
	runSize  uint8
	runCount int

	// The blocks whose codes were built: those dynamicFloor left open.
	codes int
}

// checkFloor, when a test sets it, sees every block's dynamic floor and
// dynamic size, which size then builds for the blocks the floor settles.
var checkFloor func(floor, dynamic int)

func (w *blockSizer) countLiteral(sym int) {
	if w.literalFreq[sym] == 0 {
		w.usedLiterals[w.numLiterals] = uint16(sym)
		w.numLiterals++
	}
	w.literalFreq[sym]++
}

func (w *blockSizer) literal(b byte) {
	w.countLiteral(int(b))
	w.tokens++
}

func (w *blockSizer) match(length, offset int) {
	lc := lengthCodes[length-baseMatchLength]
	oc := offsetCode(uint32(offset - baseMatchOffset))
	w.countLiteral(lengthCodesStart + int(lc))
	if w.offsetFreq[oc] == 0 {
		w.usedOffsets[w.numOffsets] = uint16(oc)
		w.numOffsets++
	}
	w.offsetFreq[oc]++
	w.extraBits += int(lengthExtraBits[lc]) + int(offsetExtraBits[oc])
	w.tokens++
}

// RFC 1951 3.2.7 specifies a special run-length encoding for specifying
// the literal and offset lengths arrays (which are concatenated into a single
// array).  This method generates that run-length encoding.
//
// Only the frequencies of each code, written into the codegenFreq
// array, decide the size. The concatenated array is never built: it is
// the used symbols' code lengths, in symbol order, with a run of zeros
// wherever symbols between them went unused, and it ends at the last
// used symbol of each alphabet.
func (w *blockSizer) generateCodegen(literals, offsets []uint16) {
	clear(w.codegenFreq[:])
	w.runCount = 0
	next := 0
	for _, sym := range literals {
		w.extendRun(0, int(sym)-next)
		w.extendRun(w.literalEncoding.lens[sym], 1)
		next = int(sym) + 1
	}
	next = 0
	for _, sym := range offsets {
		w.extendRun(0, int(sym)-next)
		w.extendRun(w.offsetEncoding.lens[sym], 1)
		next = int(sym) + 1
	}
	w.endRun()
}

// extendRun adds count more copies of size to the code-length sequence.
func (w *blockSizer) extendRun(size uint8, count int) {
	if count == 0 {
		return
	}
	if size != w.runSize {
		w.endRun()
		w.runSize = size
	}
	w.runCount += count
}

// endRun is the body of the stdlib's generateCodegen loop: it counts
// the codes that say "runCount copies of runSize".
func (w *blockSizer) endRun() {
	size, count := w.runSize, w.runCount
	w.runCount = 0
	if count == 0 {
		return
	}
	// We need to generate codegen indicating "count" of size.
	if size != 0 {
		w.codegenFreq[size]++
		count--
		for count >= 3 {
			n := 6
			if n > count {
				n = count
			}
			w.codegenFreq[16]++
			count -= n
		}
	} else {
		for count >= 11 {
			n := 138
			if n > count {
				n = count
			}
			w.codegenFreq[18]++
			count -= n
		}
		if count >= 3 {
			// count >= 3 && count <= 10
			w.codegenFreq[17]++
			count = 0
		}
	}
	w.codegenFreq[size] += int32(count)
}

// codegenSymbols is every symbol of the code-length alphabet: that one
// is small enough to walk whole.
var codegenSymbols = [codegenCodeCount]uint16{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18}

// dynamicSize builds the block's three Huffman codes and returns the
// size of dynamically encoded data in bits.
func (w *blockSizer) dynamicSize(literals, offsets []uint16) int {
	w.literalEncoding.generate(w.literalFreq[:], literals, 15)
	w.offsetEncoding.generate(w.offsetFreq[:], offsets, 15)
	w.generateCodegen(literals, offsets)
	w.codegenEncoding.generate(w.codegenFreq[:], codegenSymbols[:], 7)
	numCodegens := len(w.codegenFreq)
	for numCodegens > 4 && w.codegenFreq[codegenOrder[numCodegens-1]] == 0 {
		numCodegens--
	}
	header := 3 + 5 + 5 + 4 + (3 * numCodegens) +
		w.codegenEncoding.bitLength(w.codegenFreq[:], codegenSymbols[:]) +
		int(w.codegenFreq[16])*2 +
		int(w.codegenFreq[17])*3 +
		int(w.codegenFreq[18])*7
	return header +
		w.literalEncoding.bitLength(w.literalFreq[:], literals) +
		w.offsetEncoding.bitLength(w.offsetFreq[:], offsets) +
		w.extraBits
}

// leastCodegens[min(n, 9)] is the least numCodegens for an alphabet of
// n ≥ 1 used symbols: 1 + the earliest codegenOrder place of a length its
// code can give, 1 if n ≤ 2, else 1 to n−1 (TestLeastCodegens).
var leastCodegens = [10]int{18, 18, 18, 16, 14, 12, 10, 8, 6, 5}

// dynamicFloor returns a floor under dynamicSize from the histogram: lengths
// for the code-length symbols (a bit each) and their 17s' and 18s' extra
// bits, codes for the rest (DESIGN.md §6, "The dynamic code's floor").
func (w *blockSizer) dynamicFloor(literals, offsets []uint16) (lengths, codes int) {
	lengths, literalBits, run := lengthsFloor(w.literalFreq[:], literals, 0)
	// A run from offset code 0 continues the last literal run.
	more, offsetBits, run := lengthsFloor(w.offsetFreq[:], offsets, run)
	lengths += more + runFloor(run)
	numCodegens := max(leastCodegens[min(len(literals), 9)], leastCodegens[min(len(offsets), 9)])
	return lengths, 3 + 5 + 5 + 4 + 3*numCodegens + literalBits + offsetBits + w.extraBits
}

// lengthsFloor walks one alphabet, given the run of adjacent used
// symbols open before it, and returns the floors of its gaps' and closed
// runs' code-length symbols and of its code's bits, and the run it leaves
// open. Up to two symbols, every code is 1 bit long; past that, one at most.
func lengthsFloor(freq []int32, symbols []uint16, run int) (lengths, bits, open int) {
	next, most := 0, int32(0)
	for _, sym := range symbols {
		if gap := int(sym) - next; gap > 0 {
			lengths, run = lengths+runFloor(run)+zerosSize(gap), 0
		}
		run, next = run+1, int(sym)+1
		bits, most = bits+int(freq[sym]), max(most, freq[sym])
	}
	if len(symbols) > 2 {
		bits += bits - int(most)
	}
	return lengths, bits, run
}

// runFloor is the fewest code-length symbols for g adjacent used
// symbols: one each up to 3, past that a length and 16s of up to 6.
func runFloor(g int) int {
	if g <= 3 {
		return g
	}
	return 1 + (g+4)/6
}

// zerosSize is what endRun spends on g zeros at a bit a symbol: 18s of
// up to 138 with 7 extra bits, then a 17 of 3 to 10 with 3, or 0s.
func zerosSize(g int) (size int) {
	for ; g >= 11; g -= min(g, 138) {
		size += 1 + 7
	}
	if g >= 3 {
		return size + 1 + 3
	}
	return size + g
}

// fixedSize returns the size of data encoded with the fixed tables, in
// bits.
func (w *blockSizer) fixedSize(literals, offsets []uint16) int {
	size := 3 + w.extraBits
	for _, sym := range literals {
		size += int(w.literalFreq[sym]) * fixedLiteralLen(int(sym))
	}
	for _, sym := range offsets {
		size += int(w.offsetFreq[sym]) * fixedOffsetLen
	}
	return size
}

// size closes the block: it returns the number of bits writeBlock would
// spend on the gathered tokens as a Huffman block, or false when it
// would store the stored input bytes instead (stored < 0: the input has
// left the window and cannot be stored). The histogram is left clear
// for the next block.
func (w *blockSizer) size(stored int) (int, bool) {
	w.countLiteral(endBlockMarker)
	// We haven't found a single match. If we want to go with the dynamic encoding,
	// we should count at least one offset to be sure that the offset huffman tree could be encoded.
	// writeBlock's estimates then price that offset although no token
	// spends it; the bits written do not include it.
	noMatch := w.numOffsets == 0
	if noMatch {
		w.offsetFreq[0] = 1
		w.usedOffsets[0] = 0
		w.numOffsets = 1
	}
	literals, offsets := w.usedLiterals[:w.numLiterals], w.usedOffsets[:w.numOffsets]
	slices.Sort(literals)
	slices.Sort(offsets)

	size, unspent := w.fixedSize(literals, offsets), fixedOffsetLen

	// writeBlock writes the dynamic code only where it is smaller: a
	// block whose floor is not is priced without building the codes.
	lengths, codes := w.dynamicFloor(literals, offsets)
	if floor := lengths + codes; floor < size || checkFloor != nil {
		dynamicSize := w.dynamicSize(literals, offsets)
		if checkFloor != nil {
			checkFloor(floor, dynamicSize)
		}
		if dynamicSize < floor {
			panic("flatesize: a block's dynamic size is below its floor")
		} else if floor < size {
			w.codes++
		}
		if dynamicSize < size {
			size, unspent = dynamicSize, int(w.offsetEncoding.lens[0])
		}
	}

	for _, sym := range literals {
		w.literalFreq[sym] = 0
	}
	for _, sym := range offsets {
		w.offsetFreq[sym] = 0
	}
	w.numLiterals, w.numOffsets, w.tokens, w.extraBits = 0, 0, 0, 0

	// Stored bytes? writeBlock compares two estimates: the stored size
	// with its header rounded up to five whole bytes, and the Huffman
	// size with the offset nobody spends still in it.
	if stored >= 0 && stored <= maxStoreBlockSize && (stored+5)*8 < size {
		return 0, false
	}
	if noMatch {
		size -= unspent
	}
	return size, true
}

type huffmanEncoder struct {
	lens      [maxNumLit]uint8
	freqcache [maxNumLit + 1]literalNode
	bitCount  [17]int32
}

type literalNode struct {
	literal uint16
	freq    int32
}

// A levelInfo describes the state of the constructed tree for a given depth.
type levelInfo struct {
	// Our level.  for better printing
	level int32

	// The frequency of the last node at this level
	lastFreq int32

	// The frequency of the next character to add to this level
	nextCharFreq int32

	// The frequency of the next pair (from level below) to add to this level.
	// Only valid if the "needed" value of the next lower level is 0.
	nextPairFreq int32

	// The number of chains remaining to generate for this level before moving
	// up to the next level
	needed int32
}

func maxNode() literalNode { return literalNode{math.MaxUint16, math.MaxInt32} }

// bitLength sums freq × code length over symbols, which must include
// every symbol with a non-zero frequency.
func (h *huffmanEncoder) bitLength(freq []int32, symbols []uint16) int {
	var total int
	for _, sym := range symbols {
		total += int(freq[sym]) * int(h.lens[sym])
	}
	return total
}

const maxBitsLimit = 16

// bitCounts computes the number of literals assigned to each bit size in the Huffman encoding.
// It is only called when list.length >= 3.
// The cases of 0, 1, and 2 literals are handled by special case code.
//
// list is an array of the literals with non-zero frequencies
// and their associated frequencies. The array is in order of increasing
// frequency and has as its last element a special element with frequency
// MaxInt32.
//
// maxBits is the maximum number of bits that should be used to encode any literal.
// It must be less than 16.
//
// bitCounts returns an integer slice in which slice[i] indicates the number of literals
// that should be encoded in i bits.
func (h *huffmanEncoder) bitCounts(list []literalNode, maxBits int32) []int32 {
	if maxBits >= maxBitsLimit {
		panic("flate: maxBits too large")
	}
	n := int32(len(list))
	list = list[0 : n+1]
	list[n] = maxNode()

	// The tree can't have greater depth than n - 1, no matter what. This
	// saves a little bit of work in some small cases
	if maxBits > n-1 {
		maxBits = n - 1
	}

	// Create information about each of the levels.
	// A bogus "Level 0" whose sole purpose is so that
	// level1.prev.needed==0.  This makes level1.nextPairFreq
	// be a legitimate value that never gets chosen.
	var levels [maxBitsLimit]levelInfo
	// leafCounts[i] counts the number of literals at the left
	// of ancestors of the rightmost node at level i.
	// leafCounts[i][j] is the number of literals at the left
	// of the level j ancestor.
	var leafCounts [maxBitsLimit][maxBitsLimit]int32

	for level := int32(1); level <= maxBits; level++ {
		// For every level, the first two items are the first two characters.
		// We initialize the levels as if we had already figured this out.
		levels[level] = levelInfo{
			level:        level,
			lastFreq:     list[1].freq,
			nextCharFreq: list[2].freq,
			nextPairFreq: list[0].freq + list[1].freq,
		}
		leafCounts[level][level] = 2
		if level == 1 {
			levels[level].nextPairFreq = math.MaxInt32
		}
	}

	// We need a total of 2*n - 2 items at top level and have already generated 2.
	levels[maxBits].needed = 2*n - 4

	level := maxBits
	for {
		l := &levels[level]
		if l.nextPairFreq == math.MaxInt32 && l.nextCharFreq == math.MaxInt32 {
			// We've run out of both leaves and pairs.
			// End all calculations for this level.
			// To make sure we never come back to this level or any lower level,
			// set nextPairFreq impossibly large.
			l.needed = 0
			levels[level+1].nextPairFreq = math.MaxInt32
			level++
			continue
		}

		prevFreq := l.lastFreq
		if l.nextCharFreq < l.nextPairFreq {
			// The next item on this row is a leaf node.
			leaves := leafCounts[level][level] + 1
			l.lastFreq = l.nextCharFreq
			// Lower leafCounts are the same of the previous node.
			leafCounts[level][level] = leaves
			l.nextCharFreq = list[leaves].freq
		} else {
			// The next item on this row is a pair from the previous row.
			// nextPairFreq isn't valid until we generate two
			// more values in the level below
			l.lastFreq = l.nextPairFreq
			// Take leaf counts from the lower level, except counts[level] remains the same.
			copy(leafCounts[level][:level], leafCounts[level-1][:level])
			levels[l.level-1].needed = 2
		}

		if l.needed--; l.needed == 0 {
			// We've done everything we need to do for this level.
			// Continue calculating one level up. Fill in nextPairFreq
			// of that level with the sum of the two nodes we've just calculated on
			// this level.
			if l.level == maxBits {
				// All done!
				break
			}
			levels[l.level+1].nextPairFreq = prevFreq + l.lastFreq
			level++
		} else {
			// If we stole from below, move down temporarily to replenish it.
			for levels[level-1].needed > 0 {
				level--
			}
		}
	}

	// Somethings is wrong if at the end, the top level is null or hasn't used
	// all of the leaves.
	if leafCounts[maxBits][maxBits] != n {
		panic("leafCounts[maxBits][maxBits] != n")
	}

	bitCount := h.bitCount[:maxBits+1]
	bits := 1
	counts := &leafCounts[maxBits]
	for level := maxBits; level > 0; level-- {
		// chain.leafCount gives the number of literals requiring at least "bits"
		// bits to encode.
		bitCount[bits] = counts[level] - counts[level-1]
		bits++
	}
	return bitCount
}

// Look at the leaves and assign them a bit count. The stdlib goes on to
// sort each chunk by literal and hand out code values; a size needs
// only the lengths.
func (h *huffmanEncoder) assignSize(bitCount []int32, list []literalNode) {
	for n, bits := range bitCount {
		if n == 0 || bits == 0 {
			continue
		}
		// The literals list[len(list)-bits] .. list[len(list)-bits]
		// are encoded using "bits" bits.
		chunk := list[len(list)-int(bits):]
		for _, node := range chunk {
			h.lens[node.literal] = uint8(n)
		}
		list = list[0 : len(list)-int(bits)]
	}
}

// Update this Huffman Code object to be the minimum code for the specified frequency count.
//
// freq is an array of frequencies, in which freq[i] gives the frequency of literal i.
// symbols holds, in increasing order, every literal whose frequency is not zero;
// the lengths of the others are left as they were and must not be read.
// maxBits  The maximum number of bits to use for any literal.
func (h *huffmanEncoder) generate(freq []int32, symbols []uint16, maxBits int32) {
	list := h.freqcache[:len(symbols)+1]
	// Number of non-zero literals
	count := 0
	// Set list to be the set of all non-zero literals and their frequencies
	for _, sym := range symbols {
		if f := freq[sym]; f != 0 {
			list[count] = literalNode{sym, f}
			count++
		} else {
			h.lens[sym] = 0
		}
	}

	list = list[:count]
	if count <= 2 {
		// Handle the small cases here, because they are awkward for the general case code. With
		// two or fewer literals, everything has bit length 1.
		for _, node := range list {
			h.lens[node.literal] = 1
		}
		return
	}
	// (freq, literal) is a total order, so the stdlib's sort.Sort and
	// this one agree on the result.
	slices.SortFunc(list, func(a, b literalNode) int {
		if a.freq != b.freq {
			return int(a.freq) - int(b.freq)
		}
		return int(a.literal) - int(b.literal)
	})

	// Get the number of literals for each bit count
	bitCount := h.bitCounts(list, maxBits)
	// And do the assignment
	h.assignSize(bitCount, list)
}
