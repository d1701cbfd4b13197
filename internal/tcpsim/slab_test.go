package tcpsim

import (
	"slices"
	"testing"
	"unsafe"
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

// TestSlabReserve: Takes that sum to a reservation are carved from one
// allocation, disjoint; a Take past it begins a chunk of its own and
// leaves the records cut before it as they were; and the zero value,
// unreserved, still allocates each record alone.
func TestSlabReserve(t *testing.T) {
	sizes := []int{5, 1, 12, 3, 7}
	const total = 28
	var s Slab[[2]int]
	var runs [][][2]int
	if n := testing.AllocsPerRun(50, func() {
		s = Slab[[2]int]{}
		s.Reserve(total)
		runs = runs[:0]
		for _, n := range sizes {
			runs = append(runs, s.Take(n))
		}
	}); n != 1 {
		t.Fatalf("reserving %d records and taking them in %d runs allocates %v objects, want 1", total, len(sizes), n)
	}
	first := &runs[0][0]
	for i, r := range runs {
		if len(r) != sizes[i] || cap(r) != sizes[i] {
			t.Fatalf("Take(%d) has len %d cap %d", sizes[i], len(r), cap(r))
		}
		for j := range r {
			r[j] = [2]int{i, j}
		}
	}
	seen := map[*[2]int]bool{}
	for i, r := range runs {
		for j := range r {
			if p := &r[j]; seen[p] {
				t.Fatalf("run %d record %d handed out twice", i, j)
			} else {
				seen[p] = true
			}
			if r[j] != [2]int{i, j} {
				t.Fatalf("run %d record %d reads %v: runs overlap", i, j, r[j])
			}
		}
	}
	if last := &runs[len(runs)-1][sizes[len(sizes)-1]-1]; uintptr(unsafe.Pointer(last))-uintptr(unsafe.Pointer(first)) != (total-1)*unsafe.Sizeof([2]int{}) {
		t.Fatal("the reserved runs are not one chunk")
	}

	past := s.Take(4)
	for i := range past {
		past[i] = [2]int{-1, -1}
	}
	if unsafe.SliceData(past) == unsafe.SliceData(runs[0]) || len(past) != 4 || cap(past) != 4 {
		t.Fatalf("a Take past the reservation has len %d cap %d in the reserved chunk", len(past), cap(past))
	}
	for i, r := range runs {
		for j := range r {
			if r[j] != [2]int{i, j} {
				t.Fatalf("a Take past the reservation wrote %v into run %d record %d", r[j], i, j)
			}
		}
	}

	if n := testing.AllocsPerRun(50, func() {
		var z Slab[[2]int]
		for range 4 {
			z.New()
		}
	}); n != 4 {
		t.Fatalf("an unreserved zero Slab allocates %v objects for 4 records, want 4", n)
	}
}
