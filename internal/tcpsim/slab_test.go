package tcpsim

import (
	"slices"
	"testing"
)

// TestSlab: chunks double from one record to the cap; every record is
// zero when handed out and keeps its address and contents while later
// ones are cut; a run cut with Take ends at its own capacity, so an
// append past it cannot reach the next run; a run longer than the cap
// gets a chunk of its own.
func TestSlab(t *testing.T) {
	s := NewSlab[[2]int](4)
	var chunks []int
	var recs []*[2]int
	for i := 0; i < 15; i++ {
		r := s.New()
		if *r != [2]int{} {
			t.Fatalf("record %d handed out as %v, want zero", i, *r)
		}
		r[0], r[1] = i, -i
		recs = append(recs, r)
		if len(s.chunk) == 1 { // r began a chunk
			chunks = append(chunks, cap(s.chunk))
		}
	}
	if want := []int{1, 2, 4, 4, 4}; !slices.Equal(chunks, want) {
		t.Errorf("chunk sizes %v, want %v", chunks, want)
	}
	for i, r := range recs {
		if *r != [2]int{i, -i} {
			t.Errorf("record %d reads %v, want [%d %d]", i, *r, i, -i)
		}
		for _, q := range recs[:i] {
			if r == q {
				t.Fatalf("record %d handed out twice", i)
			}
		}
	}

	slots := NewSlab[int](16)
	slots.Take(2)      // the first chunk, of two
	a := slots.Take(3) // the second, of four,
	b := slots.Take(1) // shared with b
	if len(a) != 3 || cap(a) != 3 {
		t.Fatalf("Take(3) has len %d cap %d, want 3 and 3", len(a), cap(a))
	}
	_ = append(a, 7)
	if b[0] != 0 {
		t.Errorf("an append past one run wrote %d into the next", b[0])
	}
	if long := slots.Take(40); len(long) != 40 || cap(long) != 40 {
		t.Errorf("Take(40) over a cap of 16 has len %d cap %d, want 40 and 40", len(long), cap(long))
	}
}
