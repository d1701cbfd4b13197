package main

import (
	"runtime"
	"sort"
	"time"
)

// The boxes this benchmark runs on change speed with what their host's
// other guests do, in spells from a second to a few minutes: the process
// gets less than one core and what it does get runs slower. Reported
// raw, sets of ten 16 s runs per workload (ten seeds, box otherwise idle,
// eight such sets over eight hours) read pages_per_s with quartiles up to
// 85% of the median apart (spdy-3g; 25–26% on three other workloads) and
// medians of back-to-back sets up to 48% apart, CPU time per page 40% and
// 29%. The widest bound the benchmark contract allows is 25%, so raw
// times would have the driver refuse the benchmark, or refuse unchanged
// code later. No estimator over one run's rounds helps, because a spell
// can outlast a run. So the three time metrics are scaled to a reference
// speed, and the report carries the raw medians beside them.
//
// A calibration loop of fixed, allocation-free work runs next to each
// simulated run and is timed like it, by the wall clock and in CPU time:
// just before each run of an arm workload, and inside the sweep's timed
// passes just after each run, on the worker that ran it (its time is
// taken out of the pass). A round's wall times are divided by the mean
// wall time of its loops over calibRef, and its CPU times by the mean CPU
// time of its loops over calibRef, so a time that includes steal is never
// scaled by one that does not (scaling CPU time by the loops' wall time
// left a 35% spread where this leaves 11%). In the two sets taken with
// the worst spell the scaled spreads were at most 18% and the set medians
// at most 12% apart.
//
// The loop uses nothing of the repository, so no change to the simulator
// can make it faster. It follows a simulated run and so starts from cold
// caches, which is what makes it track the simulator: loops run back to
// back take a quarter of the time and, tried as the yardstick, were no
// steadier than raw. One loop reads 25% off as often as not, so the
// yardstick is only as good as the number of loops in a round: thirty or
// more. The sweep at first had one loop before each pass, four a round,
// and ten seeds read cpu_ms_per_page with quartiles 29% apart; with a
// loop after each of a round's 80 runs they were 3% apart. The set-up
// children are brought to the reference speed by the loops of the round
// they follow for the same reason (see runOne). Two things the loop
// cannot do. A round's time is a sum over its units, so the matching
// yardstick is the mean of its loops; the median was tried, to keep out
// the one loop in ten that a garbage collection left over from the
// previous run slows, and lost track of spiky spells (46% spread against
// the mean's 6%). A change that allocates much less therefore makes the
// loops a percent or two faster and understates its own gain by as much;
// the raw medians are there to check against. And a spell that slows the
// box by a third is taken out only in part: the scaled figures of such a
// run still read about 10% worse.

// calibRef defines the reference speed: one loop takes this long at it.
// It is what the loop took on the 2-core 2.1 GHz Xeon VM the benchmark
// was written on, on a median day, so that scaled and raw times are
// close on such a box. A slowdown of 1.2 means the box ran 20% slower.
const calibRef = 3100 * time.Microsecond

type calibrator struct {
	next []uint32 // one random cycle over 1 MiB, for dependent loads
	m    map[uint32]uint32
	src  []int
	buf  []int
	sink uint64
}

func newCalibrator() *calibrator {
	const n = 1 << 18
	c := &calibrator{next: make([]uint32, n), m: make(map[uint32]uint32, 1<<12), src: make([]int, 1<<12), buf: make([]int, 1<<12)}
	// Sattolo's algorithm with a fixed LCG: a single cycle through all
	// of next, the same in every process.
	order := make([]uint32, n)
	for i := range order {
		order[i] = uint32(i)
	}
	state := uint64(0x9E3779B97F4A7C15)
	rnd := func(bound int) int {
		state = state*6364136223846793005 + 1442695040888963407
		return int((state >> 33) % uint64(bound))
	}
	for i := n - 1; i > 0; i-- {
		j := rnd(i)
		order[i], order[j] = order[j], order[i]
	}
	for i := 0; i < n; i++ {
		c.next[order[i]] = order[(i+1)%n]
	}
	for i := range c.src {
		c.src[i] = rnd(1 << 20)
		c.m[uint32(i*2654435761)] = uint32(i)
	}
	return c
}

// loop does the fixed work once and returns what it took: dependent
// loads over a working set the size of L2, integer hashing, map lookups,
// a sort — the mix the simulator is made of.
func (c *calibrator) loop() sample {
	sw := startWatch()
	p, h := uint32(0), uint64(14695981039346656037)
	for i := 0; i < 1<<16; i++ {
		p = c.next[p]
		h = (h ^ uint64(p)) * 1099511628211
	}
	for i := uint32(0); i < 1<<14; i++ {
		h += uint64(c.m[i*2654435761])
	}
	copy(c.buf, c.src)
	sort.Ints(c.buf)
	c.sink += h + uint64(c.buf[len(c.buf)/2])
	return sw.stop()
}

// fork returns a calibrator for another goroutine: the tables are only
// read and so shared, the scratch buffer is its own.
func (c *calibrator) fork() *calibrator {
	return &calibrator{next: c.next, m: c.m, src: c.src, buf: make([]int, len(c.buf))}
}

// threadLoop is loop for a goroutine that has others running beside it:
// the CPU time is this thread's own, not the process's.
func (c *calibrator) threadLoop() sample {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	cpu0 := threadCPUTime()
	s := c.loop()
	s.cpu = threadCPUTime() - cpu0
	return s
}

// slowdown is how much slower than the reference speed the box ran while
// the loops were taken, by the wall clock and by CPU time.
func slowdown(loops []sample) (wall, cpu float64) {
	var w, c time.Duration
	for _, l := range loops {
		w += l.wall
		c += l.cpu
	}
	n := float64(len(loops)) * float64(calibRef)
	return float64(w) / n, float64(c) / n
}
