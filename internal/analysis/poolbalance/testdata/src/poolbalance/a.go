// Package poolbalance exercises acquisition-site leaks and sync.Pool
// Get/Put asymmetry against balanced usage.
package poolbalance

import "sync"

type segment struct{ n int }

type network struct {
	free []*segment
}

func (n *network) newSeg() *segment {
	if ln := len(n.free); ln > 0 {
		s := n.free[ln-1]
		n.free = n.free[:ln-1]
		return s
	}
	return &segment{}
}

func (n *network) putSeg(s *segment) { n.free = append(n.free, s) }

// discard: the classic leak — acquire and drop on the floor.
func discard(n *network) {
	n.newSeg() // want `result of n\.newSeg discarded`
}

// reacquireLeak: the second acquisition overwrites s and is never
// consumed; the first segment was released, the second cannot be.
func reacquireLeak(n *network) {
	s := n.newSeg()
	n.putSeg(s)
	s = n.newSeg() // want `s acquired from n\.newSeg is never used afterwards`
}

// balanced: one acquire, one release — silent.
func balanced(n *network) {
	s := n.newSeg()
	n.putSeg(s)
}

// passedOn: handing the segment to any call counts as consumption; the
// release path is the callee's concern (and the runtime audit's).
func passedOn(n *network, deliver func(*segment)) {
	s := n.newSeg()
	deliver(s)
}

// leakyPool is Get from below but never Put anywhere in the package.
var leakyPool = sync.Pool{New: func() any { return new(segment) }} // want `leakyPool has Get calls but no Put`

func usesLeaky() *segment {
	return leakyPool.Get().(*segment)
}

// balancedPool sees both directions.
var balancedPool = sync.Pool{New: func() any { return new(segment) }}

func getBalanced() *segment  { return balancedPool.Get().(*segment) }
func putBalanced(s *segment) { balancedPool.Put(s) }

// discardGet: dropping a pooled object at the Get site.
func discardGet() {
	balancedPool.Get() // want `result of balancedPool\.Get discarded`
}

// slotLoop mirrors sim's event-slot pool: allocSlot hands out an index
// into a slot arena and freeSlot recycles it. The same acquisition
// discipline applies — a dropped slot id can never be freed.
type slotLoop struct {
	free []int32
}

func (l *slotLoop) allocSlot() int32 {
	if n := len(l.free); n > 0 {
		id := l.free[n-1]
		l.free = l.free[:n-1]
		return id
	}
	return 0
}

func (l *slotLoop) freeSlot(id int32) { l.free = append(l.free, id) }

// discardSlot: an allocated slot index dropped on the floor.
func discardSlot(l *slotLoop) {
	l.allocSlot() // want `result of l\.allocSlot discarded`
}

// slotNeverUsed: bound but never consumed; the slot leaks from the
// arena's free list.
func slotNeverUsed(l *slotLoop) {
	id := l.allocSlot()
	l.freeSlot(id)
	id = l.allocSlot() // want `id acquired from l\.allocSlot is never used afterwards`
}

// slotBalanced: allocate, schedule, free — silent.
func slotBalanced(l *slotLoop) {
	id := l.allocSlot()
	l.freeSlot(id)
}
