// Copyright 2009 The Go Authors. All rights reserved.
// Use of this source code is governed by a BSD-style
// license that can be found in the LICENSE file.

// Package flatesize answers one question: how many bytes would
// compress/zlib at BestCompression, with a preset dictionary, emit for
// this Write+Flush on this stream? It is a size-only port of go1.24's
// compress/flate (deflate.go, huffman_bit_writer.go, huffman_code.go,
// token.go). Everything that decides the token stream or the cost of a
// block is kept line for line but the layout of the hash chains. The
// stdlib keeps a head per 17-bit hash and a link per window slot; here a
// head is per bucket (the hash's low bucketBits bits) and a position's
// link word carries the rest of its hash as a tag. A bucket's list is
// every position inserted under it, latest first, so a hash's chain is
// the sublist with its tag, in the same order: findMatch walks the
// bucket, examines and spends a try on only the entries with pos's tag,
// and stops where the stdlib's walk stops. The context is 266 KiB, a
// third of what the stdlib's layout takes. Everything that only produces
// bytes — the token slice, the bit buffer, code assignment, Adler-32 — is
// gone, and levels other than 9 with it. DESIGN.md §6 "Per-request cost
// (SPDY arm)" has the accounting; FuzzSizeOnlyDeflate holds it to the
// stdlib.
package flatesize

import (
	"encoding/binary"
	"math"
	"math/bits"
)

const (
	logWindowSize = 15
	windowSize    = 1 << logWindowSize
	windowMask    = windowSize - 1

	baseMatchLength = 3   // The smallest match length per the RFC section 3.2.5
	minMatchLength  = 4   // The smallest match length that the compressor actually emits
	maxMatchLength  = 258 // The largest match length
	baseMatchOffset = 1   // The smallest match offset

	// The maximum number of tokens we put into a single flate block, just to
	// stop things from getting too large.
	maxFlateBlockTokens = 1 << 14
	maxStoreBlockSize   = 65535
	hashBits            = 17 // After 17 performance degrades
	maxHashOffset       = 1 << 24

	// A hash's low bucketBits bits pick its bucket in hashHead; the rest,
	// its tag, ride at the top of the link word of each position
	// inserted, above the distance back to the bucket's previous
	// position. An index+hashOffset stays below maxHashOffset+2*windowSize,
	// so the tagShift bits hold every distance: none is capped.
	bucketBits = 14
	bucketMask = 1<<bucketBits - 1
	tagShift   = 32 - (hashBits - bucketBits)
	distMask   = 1<<tagShift - 1

	// Level 9 of the stdlib's table: {good 32, lazy 258, nice 258, chain
	// 4096, never skip hashing}. good has no effect at this level: the
	// lazy matcher always enters findMatch with a previous length of 3,
	// below it, so the chain is never quartered. Nor has nice: see
	// findMatch.
	lazy  = 258
	chain = 4096

	// The zlib header sent before the first deflate block: CMF and FLG,
	// then the Adler-32 of the preset dictionary if there is one.
	zlibHeaderSize = 2
	zlibDictIDSize = 4
)

// Sizer holds one zlib stream's compression context: the stdlib
// compressor's window and hash chains (as tagged buckets), and in place
// of its token slice and bit writer, the running histogram of the block
// being built and a count of bits emitted since the last byte boundary.
type Sizer struct {
	// Input hash chains, by bucket.
	// hashHead[bucket] holds the largest inputIndex+hashOffset inserted
	// into the bucket, or 0. If that index is within the current window,
	// hashLink[index & windowMask] holds its tag (hash>>bucketBits, from
	// tagShift up) and the distance back to the bucket's previous index
	// (below).
	chainHead  int
	hashHead   [1 << bucketBits]uint32
	hashLink   [windowSize]uint32
	hashOffset int

	// input window: unprocessed data is window[index:windowEnd]
	index         int
	window        [2 * windowSize]byte
	windowEnd     int
	blockStart    int  // window index where current tokens start
	byteAvailable bool // if true, still need to process window[index-1].

	sync bool // requesting flush

	// deflate state
	length         int
	offset         int
	maxInsertIndex int

	block blockSizer

	// bits counts what the stream has emitted since it was last byte
	// aligned, which every sync flush leaves it.
	bits int
	// header is the zlib header still owed: the first block pays it.
	header int
}

// New returns a Sizer for a stream whose window is preset with dict, as
// zlib.NewWriterLevelDict(w, zlib.BestCompression, dict) is.
func New(dict []byte) *Sizer {
	s := new(Sizer)
	s.start(dict)
	return s
}

// Reset puts s, whatever stream it has sized, in the state New(dict)
// returns, without allocating: the 266 KiB context is cleared in place.
func (s *Sizer) Reset(dict []byte) {
	*s = Sizer{}
	s.start(dict)
}

// start sets a cleared Sizer up for a stream preset with dict.
func (s *Sizer) start(dict []byte) {
	s.hashOffset = 1
	s.length = minMatchLength - 1
	s.chainHead = -1
	s.header = zlibHeaderSize
	if dict != nil {
		s.header += zlibDictIDSize
	}
	s.fillWindow(dict)
}

// BlockSize advances the stream by p followed by a sync flush and
// returns the number of bytes that Write(p) and Flush() on the zlib
// writer would have produced.
func (s *Sizer) BlockSize(p []byte) int {
	s.bits = 0
	for len(p) > 0 {
		s.deflate()
		p = p[s.fillDeflate(p):]
	}
	s.sync = true
	s.deflate()
	s.sync = false
	s.storedHeader()
	n := s.header + s.bits/8
	s.header = 0
	return n
}

// storedHeader accounts for a stored block's header: the 3-bit block
// type, padding to the byte boundary, LEN and NLEN. With no payload it
// is the sync marker.
func (s *Sizer) storedHeader() {
	s.bits = (s.bits+3+7)&^7 + 32
}

func (s *Sizer) fillDeflate(b []byte) int {
	if s.index >= 2*windowSize-(minMatchLength+maxMatchLength) {
		// shift the window by windowSize
		copy(s.window[:], s.window[windowSize:2*windowSize])
		s.index -= windowSize
		s.windowEnd -= windowSize
		if s.blockStart >= windowSize {
			s.blockStart -= windowSize
		} else {
			s.blockStart = math.MaxInt32
		}
		s.hashOffset += windowSize
		if s.hashOffset > maxHashOffset {
			delta := s.hashOffset - 1
			s.hashOffset -= delta
			s.chainHead -= delta

			// Links are relative and need no re-base.
			for i, v := range s.hashHead[:] {
				if int(v) > delta {
					s.hashHead[i] = uint32(int(v) - delta)
				} else {
					s.hashHead[i] = 0
				}
			}
		}
	}
	n := copy(s.window[s.windowEnd:], b)
	s.windowEnd += n
	return n
}

// endBlock prices the tokens gathered since the last block, which cover
// window[blockStart:index].
func (s *Sizer) endBlock(index int) {
	stored := -1
	if s.blockStart <= index {
		stored = index - s.blockStart
	}
	s.blockStart = index
	if size, ok := s.block.size(stored); ok {
		s.bits += size
	} else {
		s.storedHeader()
		s.bits += 8 * stored
	}
}

// fillWindow will fill the current window with the supplied
// dictionary and calculate all hashes.
func (s *Sizer) fillWindow(b []byte) {
	// If we are given too much, cut it.
	if len(b) > windowSize {
		b = b[len(b)-windowSize:]
	}
	// Add all to window.
	n := copy(s.window[:], b)
	for i := 0; i+minMatchLength <= n; i++ {
		s.insertHash(i)
	}
	// Update window information.
	s.windowEnd = n
	s.index = n
}

// insertHash puts the string at window[index:] at the head of its hash
// bucket and returns the previous head.
func (s *Sizer) insertHash(index int) uint32 {
	h := hash4(s.window[index : index+minMatchLength])
	hh := &s.hashHead[h&bucketMask]
	prev := *hh
	at := index + s.hashOffset
	// Our link should lead to the previous value.
	s.hashLink[index&windowMask] = h>>bucketBits<<tagShift | uint32(at) - prev
	// Set the head of the bucket to us.
	*hh = uint32(at)
	return prev
}

// Try to find a match starting at index whose length is greater than prevSize.
// We only look at chainCount possibilities before giving up. prevHead is
// the head of pos's bucket before pos was inserted; the walk down the
// bucket skips the entries whose tag is not pos's, which are not on the
// stdlib's chain, and tried counts the ones it examines.
func (s *Sizer) findMatch(pos int, prevHead int, prevLength int, lookahead int) (length, offset, tried int, ok bool) {
	minMatchLook := maxMatchLength
	if lookahead < minMatchLook {
		minMatchLook = lookahead
	}

	win := s.window[0 : pos+minMatchLook]

	// We quit when we get a match that's at least nice long. At level 9
	// nice is maxMatchLength, so the lookahead is the tighter cap.
	nice := minMatchLook

	length = prevLength

	wEnd := win[pos+length]
	wPos := win[pos:]
	minIndex := pos - windowSize
	tag := s.hashLink[pos&windowMask] >> tagShift
	// The link words of the positions above minIndex are theirs, and
	// minIndex's is pos's now. Below minIndex, or 0, the stdlib's walk has
	// ended: so has the bucket's, as every later entry is lower still.
	above := max(minIndex, -1)

	var link uint32
	for i := prevHead; ; i -= int(link & distMask) {
		if i > above {
			link = s.hashLink[i&windowMask]
		} else if i == minIndex && i >= 0 {
			// pos has taken over i's link word, so hash i's string again
			// for its tag, and end the walk after it: the longest
			// distance leads below 0.
			link = hash4(win[i:])>>bucketBits<<tagShift | distMask
		} else {
			break
		}
		if link>>tagShift != tag {
			continue
		}
		tried++
		if wEnd == win[i+length] {
			n := matchLen(win[i:], wPos, minMatchLook)

			if n > length && (n > minMatchLength || pos-i <= 4096) {
				length = n
				offset = pos - i
				ok = true
				if n >= nice {
					// The match is good enough that we don't try to find a better one.
					break
				}
				wEnd = win[pos+n]
			}
		}
		if tried == chain {
			break
		}
	}
	return
}

const hashmul = 0x1e35a7bd

// hash4 returns a hash representation of the first 4 bytes
// of the supplied slice.
// The caller must ensure that len(b) >= 4.
func hash4(b []byte) uint32 {
	return (binary.BigEndian.Uint32(b) * hashmul) >> (32 - hashBits)
}

// matchLen returns the number of matching bytes in a and b
// up to length 'max'. Both slices must be at least 'max'
// bytes in size. It compares eight bytes at a time where the stdlib
// compares one; the answer is the same.
func matchLen(a, b []byte, max int) int {
	a = a[:max]
	b = b[:len(a)]
	i := 0
	for ; i+8 <= len(a); i += 8 {
		if x := binary.LittleEndian.Uint64(a[i:]) ^ binary.LittleEndian.Uint64(b[i:]); x != 0 {
			return i + bits.TrailingZeros64(x)>>3
		}
	}
	for ; i < len(a); i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return max
}

// deflate is the stdlib's lazy matcher (fastSkipHashing == skipNever).
// Where that appends a token, this counts it into the block histogram.
func (s *Sizer) deflate() {
	if s.windowEnd-s.index < minMatchLength+maxMatchLength && !s.sync {
		return
	}

	s.maxInsertIndex = s.windowEnd - (minMatchLength - 1)

	for {
		lookahead := s.windowEnd - s.index
		if lookahead < minMatchLength+maxMatchLength {
			if !s.sync {
				return
			}
			if lookahead == 0 {
				// Flush current output block if any.
				if s.byteAvailable {
					// There is still one pending token that needs to be flushed
					s.block.literal(s.window[s.index-1])
					s.byteAvailable = false
				}
				if s.block.tokens > 0 {
					s.endBlock(s.index)
				}
				return
			}
		}
		if s.index < s.maxInsertIndex {
			// Update the hash
			s.chainHead = int(s.insertHash(s.index))
		}
		prevLength := s.length
		prevOffset := s.offset
		s.length = minMatchLength - 1
		s.offset = 0
		minIndex := s.index - windowSize
		if minIndex < 0 {
			minIndex = 0
		}

		// chainHead is the bucket's head: it may be in the window when no
		// position of index's own hash is, and findMatch then finds nothing.
		if s.chainHead-s.hashOffset >= minIndex && lookahead > prevLength && prevLength < lazy {
			if newLength, newOffset, _, ok := s.findMatch(s.index, s.chainHead-s.hashOffset, minMatchLength-1, lookahead); ok {
				s.length = newLength
				s.offset = newOffset
			}
		}
		if prevLength >= minMatchLength && s.length <= prevLength {
			// There was a match at the previous step, and the current match is
			// not better. Output the previous match.
			s.block.match(prevLength, prevOffset)
			// Insert in the hash table all strings up to the end of the match.
			// index and index-1 are already inserted. If there is not enough
			// lookahead, the last two strings are not inserted into the hash
			// table.
			newIndex := s.index + prevLength - 1
			end := min(newIndex, s.maxInsertIndex)
			for index := s.index + 1; index < end; index++ {
				s.insertHash(index)
			}
			s.index = newIndex
			s.byteAvailable = false
			s.length = minMatchLength - 1
			if s.block.tokens == maxFlateBlockTokens {
				// The block includes the current character
				s.endBlock(s.index)
			}
		} else {
			if s.byteAvailable {
				s.block.literal(s.window[s.index-1])
				if s.block.tokens == maxFlateBlockTokens {
					s.endBlock(s.index)
				}
			}
			s.index++
			s.byteAvailable = true
		}
	}
}
