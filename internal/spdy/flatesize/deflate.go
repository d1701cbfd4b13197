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
// the sublist with its tag, in the same order: walk walks the bucket,
// examines and spends a try on only the entries with pos's tag, and
// stops where the stdlib's walk stops. findMatch gives walk's answer
// from a search tree per chain, filed when a query visits the chain, for
// the chains queried often enough to be worth filing. The context is 458
// KiB, 64% of what the stdlib's layout takes. A block's Huffman codes
// are built only where a floor read from its histogram leaves the
// dynamic code a chance against the fixed one. Everything that only
// produces bytes — the token slice, the bit buffer, code assignment,
// Adler-32 — is gone, and levels other than 9 with it. DESIGN.md §6
// "Per-request cost (SPDY arm)" has the accounting; FuzzSizeOnlyDeflate
// holds it to the stdlib.
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
	distMask   = seen - 1

	// Flags in a position's link word: filed, findMatch has filed it in
	// its chain's search tree; seen, a query was made at it.
	filed = 1 << (tagShift - 1)
	seen  = filed >> 1

	// findMatch files a chain's new entries when it has had a query for
	// every fileAfter of them (DESIGN.md §6, "The match finder").
	fileAfter = 4

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

	// The chains' search trees, a node per window slot (findMatch), and
	// the count of positions whose bytes were compared with another's.
	tree       [windowSize]node
	candidates int

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

// node is a filed position's place in its chain's search tree: the
// distances down to its children, [0] on the side of the lower keys, [1]
// the higher, 0 for none, and seq, the count of the chain's entries up
// to it, so that two positions' seqs give the number of entries between
// them.
type node struct {
	child [2]uint16
	seq   uint16
}

// New returns a Sizer for a stream whose window is preset with dict, as
// zlib.NewWriterLevelDict(w, zlib.BestCompression, dict) is.
func New(dict []byte) *Sizer {
	s := new(Sizer)
	s.start(dict)
	return s
}

// Reset puts s, whatever stream it has sized, in the state New(dict)
// returns, without allocating: the 458 KiB context is cleared in place.
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

// Candidates returns how many times the stream's match finding has
// compared an earlier position's bytes with a later one's: the work a
// block's matches cost, counted rather than timed.
func (s *Sizer) Candidates() int { return s.candidates }

// Codes returns how many of the stream's blocks had their codes built.
func (s *Sizer) Codes() int { return s.block.codes }

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

// walk is the stdlib's findMatch: it walks pos's chain, latest first,
// for a match longer than 3 bytes, and gives up after chain tries.
// prevHead is the head of pos's bucket before pos was inserted; the walk
// down the bucket skips the entries whose tag is not pos's, which are
// not on the stdlib's chain, and tried counts the ones it examines.
// findMatch returns the same answer in fewer steps and falls back on
// this where the budget could bind.
func (s *Sizer) walk(pos int, prevHead int, lookahead int) (length, offset, tried int, ok bool) {
	minMatchLook := maxMatchLength
	if lookahead < minMatchLook {
		minMatchLook = lookahead
	}

	win := s.window[0 : pos+minMatchLook]

	// We quit when we get a match that's at least nice long. At level 9
	// nice is maxMatchLength, so the lookahead is the tighter cap.
	nice := minMatchLook

	length = minMatchLength - 1

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

// findMatch returns what walk returns at pos (DESIGN.md §6, "What the
// walk returns" and "The match finder"), reading the older part of pos's
// chain from a search tree ordered by the maxMatchLength bytes after
// each position, each above the ones filed before it (LZMA's bt4). Down
// the bucket to the newest filed entry, the chain's entries are compared
// with pos as the walk compares them, then filed, oldest first, unless
// the chain has had fewer than one query for every fileAfter of them. An
// entry whose key runs past windowEnd waits for a later query. One
// descent for pos's key then meets, for every length, the most recent
// filed position that matches pos that far, and files pos if its key is
// in the window. Where the answer is not among the chain's chain most
// recent entries, the walk's budget binds, and the walk answers instead.
func (s *Sizer) findMatch(pos int, prevHead int, lookahead int) (length, offset int, ok bool) {
	look := min(maxMatchLength, lookahead)
	minIndex := pos - windowSize
	low := max(minIndex, 0)
	keyed := s.windowEnd - maxMatchLength // the last position whose key is all in the window
	tag := s.hashLink[pos&windowMask] >> tagShift
	s.hashLink[pos&windowMask] |= seen
	wPos := s.window[pos : pos+look]
	length = minMatchLength - 1
	wEnd := wPos[length]

	// above counts the entries above the newest filed one, root, and
	// queried those of them a query was made at; next is the oldest entry
	// to file, each of which keeps, in its tree slot, the distance up to
	// the next one (0 for none).
	above, queried, root, next := 0, 0, -1, -1
	var link uint32
	for i := prevHead; i >= low; i -= int(link & distMask) {
		if i == minIndex {
			// pos has taken over i's link word, flags and all. i is the
			// oldest entry in the window, so whether it was filed or not,
			// the tree in the window is at most i: it is filed again.
			link = hash4(s.window[i:])>>bucketBits<<tagShift | distMask
		} else {
			link = s.hashLink[i&windowMask]
		}
		if link>>tagShift != tag {
			continue
		}
		if link&filed != 0 {
			root = i
			break
		}
		if link&seen != 0 {
			queried++
		}
		above++
		if length < look && wEnd == s.window[i+length] {
			if n := matchLen(s.window[i:], wPos, look); n > length && (n > minMatchLength || pos-i <= 4096) {
				length, offset = n, pos-i
				if n < look {
					wEnd = wPos[n]
				} else if above > fileAfter*(queried+1) {
					// Nothing older can beat it, and a chain this
					// busy so far is left unfiled.
					break
				}
			}
		}
		if above == chain {
			// The walk has spent its tries.
			s.candidates += above
			return length, offset, offset != 0
		}
		if i <= keyed {
			s.tree[i&windowMask].child[0] = uint16(max(next-i, 0))
			next = i
		}
	}
	s.candidates += above
	best := -1
	if above <= fileAfter*(queried+1) {
		for u := next; u >= 0; {
			d := s.tree[u&windowMask].child[0]
			s.file(u, root, low, maxMatchLength)
			if u != minIndex {
				s.hashLink[u&windowMask] |= filed
			}
			root = u
			above--
			if d == 0 {
				break
			}
			u += int(d)
		}
		if pos <= keyed && (minIndex < 0 || hash4(s.window[minIndex:]) != hash4(wPos)) {
			// pos's own key is all in the window: the descent that finds
			// its match files it too. It takes minIndex's tree slot, so
			// not while minIndex may be in pos's tree.
			var n int
			n, best = s.file(pos, root, low, length)
			if best >= 0 {
				length = n
			}
			s.hashLink[pos&windowMask] |= filed
			root = pos
		}
	}
	if root != pos && root >= 0 && length < look {
		var lens [2]int // how far the last nodes above and below pos's key matched it
		for c := root; c >= low; {
			n := min(lens[0], lens[1])
			n += matchLen(s.window[c+n:], wPos[n:], look-n)
			s.candidates++
			if n > length {
				length, best = n, c
			}
			if n == look {
				break
			}
			side := 0
			if s.window[c+n] < wPos[n] {
				side = 1
			}
			lens[side] = n
			d := s.tree[c&windowMask].child[side]
			if d == 0 {
				break
			}
			c -= int(d)
		}
	}
	if best >= 0 {
		if length == minMatchLength && pos-best > 4096 {
			// The nearest 4-byte match is too far, so all of them are.
			return minMatchLength - 1, 0, false
		}
		// The walk's try at best: after the entries above root, root's
		// chain count down to best's, root included unless it is pos.
		rank := above + int(s.tree[root&windowMask].seq-s.tree[best&windowMask].seq)
		if root != pos {
			rank++
		}
		if rank > chain {
			// The walk gives up before it reaches best.
			var tried int
			length, offset, tried, ok = s.walk(pos, prevHead, lookahead)
			s.candidates += tried
			return
		}
		offset = pos - best
	}
	return length, offset, offset != 0
}

// file puts u, whose key is all in the window, at the root of the tree
// whose root is root (-1 for none), as LZMA's bt4 inserts: the nodes on
// u's search path are split between u's two sides, those below u's key
// hung down its low side, each on the high side of the last, those above
// down its high side. A node whose key equals u's is retired: u takes
// its place, and its children. Nodes below low have left the window,
// and so have all their descendants, which are older. On the way, file
// finds the most recent node that matches u longest, as a query's
// descent does, if that is longer than longer: how far, and where.
func (s *Sizer) file(u, root, low, longer int) (length, best int) {
	un := &s.tree[u&windowMask]
	un.seq = 0
	if root >= 0 {
		un.seq = s.tree[root&windowMask].seq + 1
	}
	length, best = longer, -1
	visits := 0
	// Indexed by side: 1 for the nodes below u's key, 0 above. hang is
	// where the next node on that side hangs, at its owner, and lens how
	// far the last node on that side matched u.
	hang := [2]*uint16{&un.child[1], &un.child[0]}
	at := [2]int{u, u}
	var lens [2]int
	for c := root; c >= low; {
		n := min(lens[0], lens[1])
		n += matchLen(s.window[c+n:], s.window[u+n:], maxMatchLength-n)
		visits++
		if n > length {
			length, best = n, c
		}
		t := &s.tree[c&windowMask].child
		if n == maxMatchLength {
			*hang[1] = adopt(t[0], c, at[1], low)
			*hang[0] = adopt(t[1], c, at[0], low)
			s.candidates += visits
			return
		}
		side := 0
		if s.window[c+n] < s.window[u+n] {
			side = 1
		}
		d := t[side]
		*hang[side], hang[side], at[side], lens[side] = uint16(at[side]-c), &t[side], c, n
		if d == 0 {
			break
		}
		c -= int(d)
	}
	*hang[0], *hang[1] = 0, 0
	s.candidates += visits
	return
}

// adopt re-hangs c's child, d below c, from at: its distance below at,
// or 0 if it has none in the window.
func adopt(d uint16, c, at, low int) uint16 {
	if d == 0 || c-int(d) < low {
		return 0
	}
	return uint16(at - c + int(d))
}

// checkQuery, when a test sets it, sees every findMatch answer deflate
// takes, with the arguments it was asked with.
var checkQuery func(s *Sizer, pos, prevHead, lookahead, length, offset int, ok bool)

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
		if head := s.chainHead - s.hashOffset; head >= minIndex && lookahead > prevLength && prevLength < lazy {
			newLength, newOffset, ok := s.findMatch(s.index, head, lookahead)
			if checkQuery != nil {
				checkQuery(s, s.index, head, lookahead, newLength, newOffset, ok)
			}
			if ok {
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
