package spdy

// PriorityQueue schedules items by SPDY priority: strict priority order
// (0 first), FIFO within a class. This is the transmit discipline the
// SPDY server uses so that high-priority resources are transferred
// before low-priority ones (Figure 1(d)): the connection is never
// congested with non-critical resources while critical requests pend.
type PriorityQueue[T any] struct {
	classes [MaxPriority + 1]class[T]
	n       int
}

// class is one priority's FIFO: items[head:] are queued. Popping moves
// head instead of re-slicing from the front, which would give away the
// capacity in front of it and make a class that holds a lone item
// regrow on every push.
type class[T any] struct {
	items []T
	head  int
}

// Push enqueues item at priority p (clamped to the valid range).
func (q *PriorityQueue[T]) Push(p Priority, item T) {
	if p > MaxPriority {
		p = MaxPriority
	}
	c := &q.classes[p]
	if c.head > 0 && len(c.items) == cap(c.items) && 2*c.head >= len(c.items) {
		// Full, and at least half of it popped: a class that never empties
		// reuses that space rather than carrying it through every regrowth.
		n := copy(c.items, c.items[c.head:])
		clear(c.items[n:])
		c.items, c.head = c.items[:n], 0
	}
	c.items = append(c.items, item)
	q.n++
}

// Pop removes the highest-priority, oldest item.
func (q *PriorityQueue[T]) Pop() (T, bool) {
	var zero T
	for p := range q.classes {
		c := &q.classes[p]
		if c.head < len(c.items) {
			item := c.items[c.head]
			c.items[c.head] = zero // the queue no longer holds it
			if c.head++; c.head == len(c.items) {
				c.items, c.head = c.items[:0], 0
			}
			q.n--
			return item, true
		}
	}
	return zero, false
}

// Peek returns the item Pop would return without removing it.
func (q *PriorityQueue[T]) Peek() (T, bool) {
	for p := range q.classes {
		if c := &q.classes[p]; c.head < len(c.items) {
			return c.items[c.head], true
		}
	}
	var zero T
	return zero, false
}

// Len reports the number of queued items.
func (q *PriorityQueue[T]) Len() int { return q.n }

// PriorityForType maps an object's content kind to the priority Chrome
// assigns: documents and scripts/stylesheets ahead of images.
func PriorityForType(kind string) Priority {
	switch kind {
	case "html":
		return 0
	case "css":
		return 1
	case "js":
		return 2
	case "xhr", "text":
		return 3
	case "img":
		return 4
	default:
		return 5
	}
}
