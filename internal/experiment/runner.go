// Concurrent, memoizing experiment runner. Every Run is an isolated
// deterministic simulation (its own event loop, RNG, network and
// browser), so seeds of a sweep can execute on separate goroutines and
// identical (network, mode, flags, seed) conditions can be computed once
// and replayed from cache — `spdysim -exp all` re-sweeps the same base
// conditions dozens of times across the ~20 registered experiments.
package experiment

import (
	"runtime"
	"sync"
	"sync/atomic"

	"spdier/internal/sim"
	"spdier/internal/spdy"
)

// Runner executes runs and sweeps through a bounded worker pool and a
// memoizing result cache. The zero value is not usable; call NewRunner.
// A Runner is safe for concurrent use.
type Runner struct {
	parallel int
	cache    *memoCache[*Result]
	stats    *memoCache[*RunStats]
	// tokens holds the worker tokens, parallel of them, each carrying a
	// run arena. Run, RunStats and FillShard take one on entry and give
	// it back on return; every simulation runs under one of them, on its
	// arena. Nothing that holds a token takes another.
	tokens chan *runArena

	// shardExec, when non-nil, is offered every SweepStream shard before
	// the in-process fold (the process-fabric coordinator). Guarded by
	// shardExecMu: it is installed once at startup but read per sweep.
	shardExecMu sync.RWMutex
	shardExec   ShardExecutor

	// Progress counters for long sweeps (-progress in cmd/spdysim).
	// runsDone counts every completed run over the runner's lifetime;
	// sweepDone/sweepTotal track the sweep currently in flight (the
	// registered experiments run their sweeps sequentially).
	runsDone   atomic.Uint64
	sweepDone  atomic.Uint64
	sweepTotal atomic.Uint64
}

// NewRunner returns a Runner executing at most parallel simulations at
// once; parallel <= 0 selects GOMAXPROCS.
func NewRunner(parallel int) *Runner {
	if parallel <= 0 {
		parallel = runtime.GOMAXPROCS(0)
	}
	r := &Runner{
		parallel: parallel,
		cache:    newMemoCache[*Result](DefaultCacheCapacity),
		stats:    newMemoCache[*RunStats](DefaultStatsCacheCapacity),
		tokens:   make(chan *runArena, parallel),
	}
	for i := 0; i < parallel; i++ {
		r.tokens <- new(runArena)
	}
	return r
}

// runArena is the memory a worker token carries and lends each run made
// under it: the event loop's storage and the SPDY sessions' zlib
// contexts. A run takes them at its start; at its end the arena takes
// them back, emptied, so the Result reaches none of it and the next run
// starts where a fresh one does. It keeps as many event slots, and as
// many contexts, as its busiest run used at once. A nil arena, the
// one-shot Run's, lends a fresh loop and, to a SPDY run, a shelf from
// oneShotShelves.
type runArena struct {
	loop  sim.Storage
	shelf spdy.Shelf
}

// oneShotShelves keeps the zlib contexts of finished one-shot SPDY runs
// for the next, as many shelves as such runs were ever in flight at
// once: a context is some 460 KiB (flatesize.Sizer), more than a short
// run allocates besides.
var oneShotShelves struct {
	sync.Mutex
	free []*spdy.Shelf
}

// lend returns the loop and the shelf of a run starting on a; zlib says
// whether the run prices SPDY header blocks.
func (a *runArena) lend(zlib bool) (*sim.Loop, *spdy.Shelf) {
	switch {
	case a != nil:
		return sim.NewLoopOn(&a.loop), &a.shelf
	case !zlib:
		return sim.NewLoop(), nil
	}
	o := &oneShotShelves
	o.Lock()
	defer o.Unlock()
	if n := len(o.free); n > 0 {
		sh := o.free[n-1]
		o.free = o.free[:n-1]
		return sim.NewLoop(), sh
	}
	return sim.NewLoop(), new(spdy.Shelf)
}

// reclaim releases a finished run's loop and takes back what a lent
// it: shelf is what lend returned.
func (a *runArena) reclaim(loop *sim.Loop, shelf *spdy.Shelf) {
	if a != nil {
		loop.ReleaseTo(&a.loop)
		a.shelf.Reclaim()
		return
	}
	loop.Release()
	if shelf != nil {
		shelf.Reclaim()
		o := &oneShotShelves
		o.Lock()
		o.free = append(o.free, shelf)
		o.Unlock()
	}
}

// acquire takes a worker token, waiting for one if all are out; release
// gives it back.
func (r *Runner) acquire() *runArena  { return <-r.tokens }
func (r *Runner) release(a *runArena) { r.tokens <- a }

// beginSweep resets the current-sweep progress counters.
func (r *Runner) beginSweep(total int) {
	r.sweepTotal.Store(uint64(total))
	r.sweepDone.Store(0)
}

// noteRun records one completed run for progress reporting.
func (r *Runner) noteRun() {
	r.runsDone.Add(1)
	r.sweepDone.Add(1)
}

// NoteExternalRuns credits n runs computed outside this process (fabric
// worker progress frames, journal replays) to the progress counters, so
// -progress ETAs aggregate across worker processes.
func (r *Runner) NoteExternalRuns(n int) {
	if n <= 0 {
		return
	}
	r.runsDone.Add(uint64(n))
	r.sweepDone.Add(uint64(n))
}

// SetShardExecutor installs (or, with nil, removes) the executor offered
// every SweepStream shard before the in-process fold.
func (r *Runner) SetShardExecutor(ex ShardExecutor) {
	r.shardExecMu.Lock()
	r.shardExec = ex
	r.shardExecMu.Unlock()
}

func (r *Runner) shardExecutor() ShardExecutor {
	r.shardExecMu.RLock()
	defer r.shardExecMu.RUnlock()
	return r.shardExec
}

// Progress reports lifetime completed runs plus the current sweep's
// done/total counters.
func (r *Runner) Progress() (done, sweepDone, sweepTotal uint64) {
	return r.runsDone.Load(), r.sweepDone.Load(), r.sweepTotal.Load()
}

// SetCacheCapacity bounds how many Results the runner retains
// (n <= 0 means unbounded). Shrinking does not evict until the next
// insertion.
func (r *Runner) SetCacheCapacity(n int) {
	r.cache.mu.Lock()
	r.cache.cap = n
	r.cache.mu.Unlock()
}

// Parallelism reports the worker-pool bound.
func (r *Runner) Parallelism() int { return r.parallel }

// CacheStats snapshots the full-Result cache hit/miss counters.
func (r *Runner) CacheStats() CacheStats { return r.cache.stats() }

// CachedConditions reports how many distinct conditions are memoized.
func (r *Runner) CachedConditions() int { return r.cache.len() }

// StreamCacheStats snapshots the per-run aggregate (RunStats) cache
// counters used by the streaming sweep path.
func (r *Runner) StreamCacheStats() CacheStats { return r.stats.stats() }

// ResetCache drops all memoized results and aggregates and zeroes the
// counters.
func (r *Runner) ResetCache() {
	r.cache.reset()
	r.stats.reset()
}

// Run executes (or replays from cache) one measurement run under a
// worker token. Results are memoized by CacheKey, so callers must treat
// them as immutable; runs without a canonical key (explicit Pages)
// always simulate.
func (r *Runner) Run(opts Options) *Result {
	a := r.acquire()
	defer r.release(a)
	return r.runOn(a, opts)
}

// runOn is Run on the arena of a token the caller holds.
func (r *Runner) runOn(a *runArena, opts Options) *Result {
	key, ok := CacheKey(opts)
	if !ok {
		return run(opts, a, nil)
	}
	return r.cache.getOrRun(key, func() *Result { return run(opts, a, nil) })
}

// fanOut computes items 0…n−1 with run, one goroutine each and at most
// width at a time, and hands every value to emit on the caller's
// goroutine strictly in index order, so a parallel sweep performs its
// caller-side work in exactly the order a serial one does. window > 0
// caps how many items may be started but not yet emitted: item i+window
// starts once item i has been emitted. A width of 1, or a single item,
// runs serially on the caller. width paces this one sweep; the
// Runner's tokens, which run takes, bound the simulations of all.
func fanOut[T any](width, n, window int, run func(i int) T, emit func(T)) {
	if n <= 1 || width <= 1 {
		for i := 0; i < n; i++ {
			emit(run(i))
		}
		return
	}
	sem := make(chan struct{}, width)
	slots := n
	if window > 0 && window < n {
		slots = window
	}
	vals := make([]T, slots)
	ready := make([]bool, slots)
	finished := make(chan int, slots) // room for every started item: a worker never blocks
	started := 0
	for next := 0; next < n; next++ {
		for ; started < n && started < next+slots; started++ {
			go func(i int) {
				sem <- struct{}{}
				vals[i%slots] = run(i)
				<-sem
				finished <- i
			}(started)
		}
		slot := next % slots
		for !ready[slot] {
			ready[<-finished%slots] = true
		}
		v := vals[slot]
		vals[slot], ready[slot] = *new(T), false
		emit(v)
	}
}

// defaultRunner backs the package-level sweep and cachedRun helpers the
// registered experiments use; one shared cache means `spdysim -exp all`
// computes each condition exactly once across all experiments.
var (
	defaultRunnerMu sync.Mutex
	defaultRunner   = NewRunner(0)
)

// SetParallelism replaces the shared runner's worker-pool bound
// (n <= 0 selects GOMAXPROCS). The shared caches are kept.
func SetParallelism(n int) {
	defaultRunnerMu.Lock()
	defer defaultRunnerMu.Unlock()
	old := defaultRunner
	defaultRunner = NewRunner(n)
	defaultRunner.cache = old.cache
	defaultRunner.stats = old.stats
	defaultRunner.shardExec = old.shardExecutor()
}

// DefaultRunner returns the shared runner.
func DefaultRunner() *Runner {
	defaultRunnerMu.Lock()
	defer defaultRunnerMu.Unlock()
	return defaultRunner
}

// sweepStats runs one condition across h.Runs seeds on the shared
// runner, returning per-run aggregates instead of full Results.
func sweepStats(h Harness, base Options) []*RunStats {
	return DefaultRunner().SweepStats(h, base)
}

// sweepEach streams one condition's full Results through fn in seed
// order on the shared runner.
func sweepEach(h Harness, base Options, fn func(*Result)) {
	DefaultRunner().SweepEach(h, base, fn)
}

// sweepStream folds one condition's runs into mergeable shard
// accumulators on the shared runner.
func sweepStream(h Harness, base Options, newShard func() Folder) Folder {
	return DefaultRunner().SweepStream(h, base, newShard)
}

// cachedRun executes one memoized run on the shared runner.
func cachedRun(opts Options) *Result {
	return DefaultRunner().Run(opts)
}
