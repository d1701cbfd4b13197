package tcpsim

import (
	"slices"
	"testing"
)

// TestDequeWarmNeverReallocates: once the backing array has held the
// largest window, any amount of push/pop traffic inside that window
// compacts in place — same array, same capacity.
func TestDequeWarmNeverReallocates(t *testing.T) {
	var d deque[int]
	const window = 10
	for i := 0; i < window; i++ {
		d.push(i)
	}
	base, capacity := &d.buf[0], cap(d.buf)
	next := window
	for round := 0; round < 1000; round++ {
		for k := 0; k < round%window+1; k++ {
			d.popFront()
		}
		for d.size() < window {
			d.push(next)
			next++
		}
		if &d.buf[0] != base || cap(d.buf) != capacity {
			t.Fatalf("round %d: backing array moved or grew (cap %d → %d)", round, capacity, cap(d.buf))
		}
	}
	want := make([]int, window)
	for i := range want {
		want[i] = next - window + i
	}
	if !slices.Equal(d.live(), want) {
		t.Fatalf("live window %v, want %v", d.live(), want)
	}
}

// TestDequePopFrontRewinds: emptying the deque from the front rewinds it
// to the start of its array, keeping the capacity.
func TestDequePopFrontRewinds(t *testing.T) {
	var d deque[string]
	for _, s := range []string{"a", "b", "c"} {
		d.push(s)
	}
	capacity := cap(d.buf)
	d.popFront()
	d.popFront()
	if d.head != 2 || d.size() != 1 || d.live()[0] != "c" {
		t.Fatalf("after two pops: head=%d live=%v", d.head, d.live())
	}
	d.popFront()
	if d.head != 0 || len(d.buf) != 0 || cap(d.buf) != capacity || d.size() != 0 {
		t.Fatalf("emptied deque: head=%d len=%d cap=%d, want 0, 0, %d", d.head, len(d.buf), cap(d.buf), capacity)
	}
}

// TestDequeLiveWindowOrder: under interleaved traffic that forces both
// growth and compaction, the live window is always the FIFO suffix of
// what was pushed, oldest first.
func TestDequeLiveWindowOrder(t *testing.T) {
	var d deque[int]
	var model []int
	next := 0
	for step := 0; step < 500; step++ {
		if step%7 < 4 || len(model) == 0 {
			d.push(next)
			model = append(model, next)
			next++
		} else {
			d.popFront()
			model = model[1:]
		}
		if !slices.Equal(d.live(), model) || d.size() != len(model) {
			t.Fatalf("step %d: live %v, want %v", step, d.live(), model)
		}
	}
}
