package tcpsim

import (
	"slices"
	"sort"
)

// spanSet is what a receiver holds above a hole: half-open [lo, hi)
// spans, ascending, none empty, with a hole before each, so no span
// touches the one before it. TCP's out-of-order bytes, QUIC's received
// packet numbers and each QUIC stream's out-of-order bytes are one each,
// and the SACK blocks or ACK ranges a receiver reports are its first
// spans, copied as they stand.
type spanSet [][2]uint64

// add puts [lo, hi), which must not be empty, into the set — merged with
// every span it overlaps or touches — and returns how many of its units
// the set did not hold before. An add that reaches no lower than the
// last span's start, which is how in-order arrivals come, costs O(1);
// any other finds its place by binary search. The first add makes room
// for eight spans, so a receiver's buffer is allocated once in the
// common case.
func (s *spanSet) add(lo, hi uint64) uint64 {
	a := *s
	n := len(a)
	if n == 0 || lo > a[n-1][1] {
		if a == nil {
			a = make(spanSet, 0, 8)
		}
		*s = append(a, [2]uint64{lo, hi})
		return hi - lo
	}
	if last := &a[n-1]; lo >= last[0] {
		if hi <= last[1] {
			return 0
		}
		added := hi - last[1]
		last[1] = hi
		return added
	}
	// a[i:j] are the spans [lo, hi) overlaps or touches.
	i := sort.Search(n, func(k int) bool { return a[k][1] >= lo })
	j := i + sort.Search(n-i, func(k int) bool { return a[i+k][0] > hi })
	if i == j {
		*s = slices.Insert(a, i, [2]uint64{lo, hi})
		return hi - lo
	}
	var held uint64
	for _, r := range a[i:j] {
		held += r[1] - r[0]
	}
	lo, hi = min(lo, a[i][0]), max(hi, a[j-1][1])
	a[i] = [2]uint64{lo, hi}
	*s = append(a[:i+1], a[j:]...)
	return hi - lo - held
}

// drain takes out every span that begins at or below at, the point the
// receiver holds everything below, and returns the point it holds
// everything below now.
func (s *spanSet) drain(at uint64) uint64 {
	a := *s
	k := 0
	for ; k < len(a) && a[k][0] <= at; k++ {
		at = max(at, a[k][1])
	}
	if k > 0 {
		*s = a[:copy(a, a[k:])]
	}
	return at
}

// trim forgets the lowest spans, keeping at most n.
func (s *spanSet) trim(n int) {
	if a := *s; len(a) > n {
		*s = a[:copy(a, a[len(a)-n:])]
	}
}
