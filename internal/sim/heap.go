package sim

// heapSched is the 4-ary heap scheduler ordered by (at, seq) — the
// original event queue, retained behind the scheduler interface so
// differential tests can diff wheel-vs-heap event orderings directly.
//
// A 4-ary layout halves the tree depth of a binary heap; combined with
// inline keys this makes sift operations short, branch-predictable loops
// over one contiguous slice. slots[id].pos tracks each entry's heap index
// so cancel can remove an arbitrary entry in O(log n).
type heapSched struct {
	l    *Loop
	heap []heapEntry
}

// heapEntry is one 4-ary heap element. The ordering key (at, seq) is
// stored inline so sifting never chases the slot pool.
type heapEntry struct {
	at  Time
	seq uint64
	id  int32
}

func entryLess(a, b heapEntry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (h *heapSched) schedule(at Time, seq uint64, id int32) {
	h.heap = append(h.heap, heapEntry{at: at, seq: seq, id: id})
	h.siftUp(len(h.heap) - 1)
}

func (h *heapSched) cancel(id int32) {
	h.remove(int(h.l.slots[id].pos))
}

func (h *heapSched) pending() int { return len(h.heap) }

func (h *heapSched) release() { h.heap = nil }

func (h *heapSched) run(deadline Time) Time {
	l := h.l
	for len(h.heap) > 0 && !l.stopped {
		e := h.heap[0]
		if e.at > deadline {
			l.now = deadline
			return l.now
		}
		call := l.slots[e.id].h
		h.remove(0)
		l.freeSlot(e.id)
		if e.at > l.now {
			l.now = e.at
		}
		l.fired++
		call.Call()
	}
	if deadline != Forever && l.now < deadline && len(h.heap) == 0 {
		l.now = deadline
	}
	return l.now
}

// remove deletes the entry at index i, preserving heap order.
func (h *heapSched) remove(i int) {
	n := len(h.heap) - 1
	last := h.heap[n]
	h.heap = h.heap[:n]
	if i == n {
		return
	}
	h.heap[i] = last
	h.l.slots[last.id].pos = int32(i)
	if i > 0 && entryLess(last, h.heap[(i-1)>>2]) {
		h.siftUp(i)
	} else {
		h.siftDown(i)
	}
}

func (h *heapSched) siftUp(i int) {
	hp := h.heap
	e := hp[i]
	for i > 0 {
		p := (i - 1) >> 2
		if !entryLess(e, hp[p]) {
			break
		}
		hp[i] = hp[p]
		h.l.slots[hp[i].id].pos = int32(i)
		i = p
	}
	hp[i] = e
	h.l.slots[e.id].pos = int32(i)
}

func (h *heapSched) siftDown(i int) {
	hp := h.heap
	n := len(hp)
	e := hp[i]
	for {
		c := i<<2 + 1
		if c >= n {
			break
		}
		m := c
		end := c + 4
		if end > n {
			end = n
		}
		for j := c + 1; j < end; j++ {
			if entryLess(hp[j], hp[m]) {
				m = j
			}
		}
		if !entryLess(hp[m], e) {
			break
		}
		hp[i] = hp[m]
		h.l.slots[hp[i].id].pos = int32(i)
		i = m
	}
	hp[i] = e
	h.l.slots[e.id].pos = int32(i)
}
