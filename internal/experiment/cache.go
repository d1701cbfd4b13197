package experiment

import (
	"math"
	"reflect"
	"strconv"
	"sync"
	"sync/atomic"
)

// keyVersion opens every key. The key feeds the fabric's journal
// fingerprints, so a new encoding needs a new version: a journal written
// under another encoding is then a foreign sweep, never a misread one.
const keyVersion = "k2"

// CacheKey returns the canonical serialization of opts: two Options that
// produce bit-for-bit identical simulations map to the same key, and any
// field that changes the simulation changes the key. It encodes every
// field after withDefaults, so a zero field and its explicit default
// collide as they must, and a new Options field needs no edit here.
// LeanProbe changes only how much probe trace a Result keeps, but a lean
// Result must never replay to an experiment that walks the trace, so it
// is keyed like the rest. Runs configured through Pages (arbitrary
// pointers, not declarative specs) have no key: ok is false and such
// runs are never memoized.
func CacheKey(opts Options) (key string, ok bool) {
	o := opts.withDefaults()
	var buf [4096]byte
	if b, ok := appendKey(append(buf[:0], keyVersion...), reflect.ValueOf(&o).Elem()); ok {
		return string(b), true
	}
	return "", false
}

// appendKey appends v's encoding to b: each value after a '|', floats
// as their IEEE-754 bits, strings and slices prefixed by their length
// (so a string holding '|' cannot alias other fields), structs field by
// field. Any other kind — a pointer, map, interface, func — has no
// canonical form and makes ok false.
func appendKey(b []byte, v reflect.Value) (_ []byte, ok bool) {
	b = append(b, '|')
	switch k := v.Kind(); {
	case k == reflect.Struct:
		ok = true
		for i := 0; ok && i < v.NumField(); i++ {
			b, ok = appendKey(b, v.Field(i))
		}
		return b, ok
	case k == reflect.String:
		return append(append(strconv.AppendInt(b, int64(v.Len()), 10), ':'), v.String()...), true
	case k == reflect.Slice:
		b, ok = strconv.AppendInt(b, int64(v.Len()), 10), true
		for i := 0; ok && i < v.Len(); i++ {
			b, ok = appendKey(b, v.Index(i))
		}
		return b, ok
	case k == reflect.Bool:
		return strconv.AppendBool(b, v.Bool()), true
	case v.CanInt():
		return strconv.AppendInt(b, v.Int(), 10), true
	case v.CanUint():
		return strconv.AppendUint(b, v.Uint(), 10), true
	case v.CanFloat():
		return strconv.AppendUint(b, math.Float64bits(v.Float()), 16), true
	}
	return b, false
}

// CacheStats counts cache outcomes. A hit is any lookup that reuses a
// completed or in-flight computation; a miss is a lookup that had to run
// the simulation itself.
type CacheStats struct {
	Hits, Misses uint64
}

// HitRate is Hits / (Hits + Misses), or 0 with no lookups.
func (s CacheStats) HitRate() float64 {
	if n := s.Hits + s.Misses; n > 0 {
		return float64(s.Hits) / float64(n)
	}
	return 0
}

// DefaultCacheCapacity bounds how many Results a runner retains (~2 MB
// each for a 20-site run): the baseline conditions every experiment
// re-sweeps stay resident while the LRU evicts beyond capacity.
const DefaultCacheCapacity = 256

// DefaultStatsCacheCapacity bounds the per-run aggregate (RunStats)
// cache. An entry — a few hundred bytes plus its ~2.5 KB key for 20
// sites — is three orders of magnitude smaller than a full Result, so the
// streaming sweep path can remember far more conditions.
const DefaultStatsCacheCapacity = 1 << 16

// memoCache memoizes computed values by canonical Options key, evicting
// least-recently-used entries beyond capacity. Safe for concurrent use;
// concurrent lookups of the same key run the computation exactly once
// (the losers block until the winner finishes).
type memoCache[V any] struct {
	mu      sync.Mutex
	entries map[string]*memoEntry[V]
	cap     int    // max retained entries; <= 0 means unbounded
	tick    uint64 // LRU clock
	hits    atomic.Uint64
	misses  atomic.Uint64
}

type memoEntry[V any] struct {
	once    sync.Once
	done    atomic.Bool // set after once completes; lets peek skip in-flight entries
	val     V
	lastUse uint64 // guarded by memoCache.mu
}

func newMemoCache[V any](capacity int) *memoCache[V] {
	return &memoCache[V]{entries: make(map[string]*memoEntry[V], 16), cap: capacity}
}

// getOrRun returns the memoized value for key, computing it with run on
// the first lookup.
func (c *memoCache[V]) getOrRun(key string, run func() V) V {
	c.mu.Lock()
	e, hit := c.entries[key]
	if !hit {
		if c.cap > 0 && len(c.entries) >= c.cap {
			c.evictLRU()
		}
		e = &memoEntry[V]{}
		c.entries[key] = e
	}
	c.tick++
	e.lastUse = c.tick
	c.mu.Unlock()
	if hit {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
	}
	e.once.Do(func() {
		e.val = run()
		e.done.Store(true)
	})
	return e.val
}

// peek returns the completed value for key without computing anything.
// In-flight entries are skipped rather than waited on.
func (c *memoCache[V]) peek(key string) (V, bool) {
	c.mu.Lock()
	e, ok := c.entries[key]
	if ok {
		c.tick++
		e.lastUse = c.tick
	}
	c.mu.Unlock()
	if ok && e.done.Load() {
		return e.val, true
	}
	var zero V
	return zero, false
}

// evictLRU drops the least-recently-used entry. Caller holds mu. An
// in-flight entry may be evicted; its waiters keep their pointer and
// finish normally, the result just is not reused.
func (c *memoCache[V]) evictLRU() {
	var victim string
	var oldest uint64
	for k, e := range c.entries {
		if victim == "" || e.lastUse < oldest {
			victim, oldest = k, e.lastUse
		}
	}
	delete(c.entries, victim)
}

// stats returns a snapshot of the hit/miss counters.
func (c *memoCache[V]) stats() CacheStats {
	return CacheStats{Hits: c.hits.Load(), Misses: c.misses.Load()}
}

// reset drops all memoized values and zeroes the counters.
func (c *memoCache[V]) reset() {
	c.mu.Lock()
	c.entries = make(map[string]*memoEntry[V])
	c.mu.Unlock()
	c.hits.Store(0)
	c.misses.Store(0)
}

// len reports the number of memoized (or in-flight) conditions.
func (c *memoCache[V]) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}
