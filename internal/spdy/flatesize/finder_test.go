package flatesize

import (
	"bytes"
	"math/rand"
	"testing"
)

// checkEveryQuery holds every findMatch answer deflate takes, until the
// returned func is called or the test ends, to the walk's on the same
// state: length, offset and ok. The func returns how many queries were
// checked and at how many the walk spent its whole budget, where a
// finder that did not fall back to it would have answered from beyond
// the walk's reach.
func checkEveryQuery(t testing.TB) (stop func() (queries, bound int)) {
	t.Helper()
	var queries, bound int
	t.Cleanup(func() { checkQuery = nil })
	checkQuery = func(s *Sizer, pos, prevHead, lookahead, length, offset int, ok bool) {
		queries++
		l, o, tried, k := s.walk(pos, prevHead, lookahead)
		if tried == chain {
			bound++
		}
		if l != length || o != offset || k != ok {
			t.Fatalf("query %d at %d (lookahead %d): finder (%d, %d, %v), walk (%d, %d, %v)", queries, pos, lookahead, length, offset, ok, l, o, k)
		}
	}
	return func() (int, int) {
		checkQuery = nil
		return queries, bound
	}
}

// finderSession cuts data into blocks at each 0xff. The first byte picks
// the dictionary (bit 0: none) and how many times the blocks are sized
// over (bits 1–2: 1, 2, 4 or 8), so that a short input still reaches the
// window shift.
func finderSession(data []byte) (dict []byte, blocks [][]byte) {
	if len(data) == 0 {
		return testDict, nil
	}
	if data[0]&1 == 0 {
		dict = testDict
	}
	for range 1 << (data[0] >> 1 & 3) {
		blocks = append(blocks, bytes.Split(data[1:], []byte{0xff})...)
	}
	return dict, blocks
}

// runsOfOneByte returns "aaaa" and a varying byte, some 6,000 times, so
// that the chain holds more than the walk's budget, with a 40-byte tail
// after one early "aaaa": brought back at the end, it lies farther back
// than the walk's 4,096 tries reach.
func runsOfOneByte(rng *rand.Rand) (runs, tail []byte) {
	tail = random(rng, 40)
	for len(runs) < 30000 {
		if len(runs) > 2000 && len(runs) < 2010 {
			runs = append(append(runs, "aaaa"...), tail...)
		}
		runs = append(runs, 'a', 'a', 'a', 'a', byte(rng.Intn(0xfe)))
	}
	return runs, tail
}

// FuzzFinderMatchesWalk sizes a fuzzed session and holds every match
// findMatch finds to the one walk finds at the same query.
func FuzzFinderMatchesWalk(f *testing.F) {
	rng := rand.New(rand.NewSource(11))
	join := func(mode byte, blocks ...[]byte) []byte {
		return append([]byte{mode}, bytes.Join(blocks, []byte{0xff})...)
	}
	// Blocks shorter than maxMatchLength: every key runs past the block.
	var short [][]byte
	for range 60 {
		short = append(short, text(rng, 20+rng.Intn(200)))
	}
	f.Add(join(0, short...))
	f.Add(join(1, short[:8]...))
	runs, tail := runsOfOneByte(rng)
	runs = append(append(append(runs, "aaaa"...), tail...), bytes.Repeat([]byte{'a'}, 600)...)
	f.Add(join(0, runs[:10000], runs[10000:20000], runs[20000:]))
	// Blocks sized over eight times: past the 64 KiB window shift.
	var long [][]byte
	for range 40 {
		long = append(long, text(rng, 100+rng.Intn(300)))
	}
	f.Add(join(6, long...))

	f.Fuzz(func(t *testing.T, data []byte) {
		stop := checkEveryQuery(t)
		defer stop()
		dict, blocks := finderSession(data)
		s := New(dict)
		for _, p := range blocks {
			s.BlockSize(p)
		}
	})
}

// TestFinderMeetsTheBudget: on the runs-of-one-byte seed the walk's
// budget binds, and findMatch still answers as the walk does, which it
// can only do by walking (the tree's answer there is beyond the budget).
func TestFinderMeetsTheBudget(t *testing.T) {
	p, tail := runsOfOneByte(rand.New(rand.NewSource(12)))
	p = append(append(p, "aaaa"...), tail...)
	stop := checkEveryQuery(t)
	s := New(nil)
	s.BlockSize(p)
	before := s.Candidates()
	s.BlockSize(p[:2000])
	s.BlockSize(append([]byte("aaaa"), tail...))
	queries, bound := stop()
	if bound == 0 {
		t.Fatalf("%d queries, none of them past the walk's budget", queries)
	}
	if n := s.Candidates() - before; n < chain {
		t.Fatalf("the last blocks compared %d candidates: the walk did not answer", n)
	}
}
