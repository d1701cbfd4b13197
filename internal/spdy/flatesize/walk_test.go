package flatesize

import (
	"math/rand"
	"testing"
)

// bucketMates returns n 4-grams of lowercase letters that share a bucket
// and whose 17-bit hashes all differ: each is on its own stdlib chain,
// and all of them are on one bucket's.
func bucketMates(n int) [][]byte {
	seen := map[uint32][][]byte{}
	g := []byte("aaaa")
	for {
		h := hash4(g)
		mates := seen[h&bucketMask]
		fresh := true
		for _, m := range mates {
			fresh = fresh && hash4(m) != h
		}
		if fresh {
			mates = append(mates, append([]byte(nil), g...))
			if len(mates) == n {
				return mates
			}
			seen[h&bucketMask] = mates
		}
		for i := 3; ; i-- { // the next 4-gram, "aaaz" → "aaba"
			if g[i]++; g[i] <= 'z' {
				break
			}
			g[i] = 'a'
		}
	}
}

// walkResult is what findMatch returns.
type walkResult struct{ length, offset, tried int }

// stdlibWalk is the walk the stdlib's 17-bit chains make, written out
// over the window: the positions below pos whose string hashes as pos's
// does, latest first, none below pos-windowSize or 0, at most chain of
// them, a match of length 4 only within 4096 bytes, and the walk over
// once a match reaches the lookahead. Every position below pos must have
// been inserted.
func stdlibWalk(s *Sizer, hashes []uint32, pos, lookahead int) walkResult {
	look := min(maxMatchLength, lookahead)
	win := s.window[:pos+look]
	r := walkResult{length: minMatchLength - 1}
	for i := pos - 1; i >= max(pos-windowSize, 0) && r.tried < chain; i-- {
		if hashes[i] != hashes[pos] {
			continue
		}
		r.tried++
		n := matchLen(win[i:], win[pos:], look)
		if n > r.length && (n > minMatchLength || pos-i <= 4096) {
			r.length, r.offset = n, pos-i
			if n >= look {
				break
			}
		}
	}
	return r
}

// checkWalk puts data in a Sizer's window — data[:from] as the
// dictionary, every position of which is inserted, the rest as input —
// and then, for each pos in [from, to), inserts pos and calls findMatch
// as deflate would, holding every result to stdlibWalk's.
func checkWalk(t *testing.T, data []byte, from, to int) {
	t.Helper()
	s := New(data[:from])
	s.windowEnd = from + copy(s.window[from:], data[from:])
	hashes := make([]uint32, s.windowEnd-minMatchLength+1)
	for i := range hashes {
		hashes[i] = hash4(s.window[i:])
	}
	for i := max(from-minMatchLength+1, 0); i < from; i++ {
		s.insertHash(i)
	}
	var sameTag, atMinIndex int
	for pos := from; pos < to; pos++ {
		prevHead := int(s.insertHash(pos)) - s.hashOffset
		lookahead := s.windowEnd - pos
		got := walkResult{length: minMatchLength - 1}
		if prevHead >= max(pos-windowSize, 0) {
			got.length, got.offset, got.tried, _ = s.walk(pos, prevHead, lookahead)
		}
		if want := stdlibWalk(s, hashes, pos, lookahead); got != want {
			t.Fatalf("findMatch at %d (%q): %+v, stdlib's walk %+v", pos, s.window[pos:pos+minMatchLength], got, want)
		}
		if m := pos - windowSize; m >= 0 && hashes[m]&bucketMask == hashes[pos]&bucketMask {
			atMinIndex++
			if hashes[m] == hashes[pos] {
				sameTag++
			}
		}
	}
	if atMinIndex == sameTag || sameTag == 0 {
		t.Fatalf("%d positions had a bucket-mate at pos-windowSize, %d of them on pos's own chain: want both kinds", atMinIndex, sameTag)
	}
}

// TestFindMatchWalksTheStdlibChain holds findMatch, candidate for
// candidate, to the 17-bit chain walk: the same match and the same
// number of tries. A block's size alone cannot show it: one try too many
// or too few moves a few bits that the sync flush's padding can hide.
func TestFindMatchWalksTheStdlibChain(t *testing.T) {
	if maxHashOffset+2*windowSize > distMask {
		t.Fatalf("a link's %d bits below the tag cannot hold every distance", tagShift)
	}
	mates := bucketMates(3)
	x, y, z := mates[0], mates[1], mates[2]
	rng := rand.New(rand.NewSource(7))
	noise := func(p []byte, n int) []byte {
		for ; n > 0; n-- {
			p = append(p, byte(rng.Intn(256)))
		}
		return p
	}
	tail := noise(nil, 40)

	t.Run("chains past the budget", func(t *testing.T) {
		// x, y and z, each with a byte or two after it: x's chain holds
		// some 4,900 entries of a window, with some 1,600 bucket-mates
		// interleaved. A long match planted some 3,500 tries back is
		// beyond the 4,096th entry of the bucket, and a walk that spent
		// tries on bucket-mates would miss it.
		var data []byte
		planted := false
		for len(data) < windowSize+3000 {
			switch r := rng.Intn(20); {
			case !planted && len(data) > 14000:
				data = append(append(data, x...), tail...)
				planted = true
			case r < 15:
				data = noise(append(data, x...), 1)
			case r < 19:
				data = noise(append(data, y...), 1)
			default:
				data = noise(append(data, z...), 2)
			}
		}
		data = append(append(data, x...), tail...)
		data = noise(data, 300)
		checkWalk(t, data, windowSize, len(data)-minMatchLength)
	})

	t.Run("bucket-mates at the reused slot", func(t *testing.T) {
		// Noise, with x, y and z planted at k and windowSize+k for
		// several k. At pos = windowSize+k, pos has taken over k's link
		// word, so k's tag must come from its string. The first
		// positions' windows start below 0.
		data := noise(nil, windowSize+6000)
		plant := func(k int, low, high []byte) {
			copy(data[k:], low)
			copy(data[windowSize+k:], high)
		}
		for k := 600; k < 5000; k += 97 {
			switch k % 3 {
			case 0:
				plant(k, y, x)
			case 1:
				plant(k, x, x)
				copy(data[k+4:], tail)
				copy(data[windowSize+k+4:], tail)
			default:
				plant(k, z, y)
			}
			copy(data[k+windowSize/2:], x) // a chain for the walk down to k
		}
		checkWalk(t, data, windowSize-1000, len(data)-minMatchLength)
	})
}
