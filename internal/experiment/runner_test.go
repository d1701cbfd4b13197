package experiment

import (
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"spdier/internal/browser"
	"spdier/internal/sim"
	"spdier/internal/tcpsim"
	"spdier/internal/webpage"
)

func TestCacheKeyCanonicalization(t *testing.T) {
	// Zero-valued fields and their explicit defaults must collide.
	base := Options{Mode: browser.ModeHTTP, Network: Net3G, Seed: 7}
	explicit := Options{
		Mode:         browser.ModeHTTP,
		Network:      Net3G,
		Seed:         7,
		Sites:        webpage.Table1(),
		ThinkTime:    60 * time.Second,
		PingInterval: 2 * time.Second,
		PingBytes:    600,
		CC:           "cubic",
		SPDYSessions: 1,
		SampleEvery:  500 * time.Millisecond,
	}
	bk, ok := CacheKey(base)
	if !ok {
		t.Fatal("base options not cacheable")
	}
	ek, ok := CacheKey(explicit)
	if !ok {
		t.Fatal("explicit options not cacheable")
	}
	if bk != ek {
		t.Fatalf("defaulted and explicit options disagree:\n%s\n%s", bk, ek)
	}

	// Every simulation-relevant field must change the key.
	variants := map[string]Options{
		"mode":       {Mode: browser.ModeSPDY, Network: Net3G, Seed: 7},
		"network":    {Mode: browser.ModeHTTP, Network: NetLTE, Seed: 7},
		"seed":       {Mode: browser.ModeHTTP, Network: Net3G, Seed: 8},
		"sites":      {Mode: browser.ModeHTTP, Network: Net3G, Seed: 7, Sites: webpage.Table1()[:5]},
		"think":      {Mode: browser.ModeHTTP, Network: Net3G, Seed: 7, ThinkTime: 30 * time.Second},
		"ping":       {Mode: browser.ModeHTTP, Network: Net3G, Seed: 7, PingKeepalive: true},
		"pingiv":     {Mode: browser.ModeHTTP, Network: Net3G, Seed: 7, PingInterval: 5 * time.Second},
		"pingbytes":  {Mode: browser.ModeHTTP, Network: Net3G, Seed: 7, PingBytes: 900},
		"ssai":       {Mode: browser.ModeHTTP, Network: Net3G, Seed: 7, SlowStartAfterIdleOff: true},
		"rttreset":   {Mode: browser.ModeHTTP, Network: Net3G, Seed: 7, ResetRTTAfterIdle: true},
		"cc":         {Mode: browser.ModeHTTP, Network: Net3G, Seed: 7, CC: "reno"},
		"nomcache":   {Mode: browser.ModeHTTP, Network: Net3G, Seed: 7, NoMetricsCache: true},
		"sessions":   {Mode: browser.ModeHTTP, Network: Net3G, Seed: 7, SPDYSessions: 8},
		"latebind":   {Mode: browser.ModeHTTP, Network: Net3G, Seed: 7, SPDYSessions: 8, SPDYLateBinding: true},
		"pipelining": {Mode: browser.ModeHTTP, Network: Net3G, Seed: 7, Pipelining: true},
		"nobeacons":  {Mode: browser.ModeHTTP, Network: Net3G, Seed: 7, NoBeacons: true},
		"fastorigin": {Mode: browser.ModeHTTP, Network: Net3G, Seed: 7, FastOrigin: true},
		"noundo":     {Mode: browser.ModeHTTP, Network: Net3G, Seed: 7, DisableUndo: true},
		"lean":       {Mode: browser.ModeHTTP, Network: Net3G, Seed: 7, LeanProbe: true},
		"sample":     {Mode: browser.ModeHTTP, Network: Net3G, Seed: 7, SampleEvery: time.Second},
		"pstride":    {Mode: browser.ModeHTTP, Network: Net3G, Seed: 7, ProbeStride: 2},
	}
	seen := map[string]string{bk: "base"}
	for name, opts := range variants {
		k, ok := CacheKey(opts)
		if !ok {
			t.Fatalf("%s: not cacheable", name)
		}
		if prev, dup := seen[k]; dup {
			t.Errorf("variant %q collides with %q: %s", name, prev, k)
		}
		seen[k] = name
	}

	// Explicit Pages cannot be canonicalized and must not be memoized.
	if _, ok := CacheKey(Options{Pages: []*webpage.Page{webpage.TestPage(true)}}); ok {
		t.Fatal("Pages-based options must not be cacheable")
	}
}

func TestRunnerDoesNotMemoizePagesRuns(t *testing.T) {
	r := NewRunner(1)
	opts := Options{
		Mode:    browser.ModeHTTP,
		Network: NetWiFi,
		Seed:    1,
		Pages:   []*webpage.Page{webpage.TestPage(true)},
	}
	a := r.Run(opts)
	b := r.Run(opts)
	if a == b {
		t.Fatal("Pages-based runs were memoized")
	}
	if s := r.CacheStats(); s.Hits != 0 || s.Misses != 0 {
		t.Fatalf("Pages-based runs touched the cache: %+v", s)
	}
}

// sweepResults collects a SweepEach sweep's Results in delivery order.
func sweepResults(r *Runner, h Harness, base Options) []*Result {
	var out []*Result
	r.SweepEach(h, base, func(res *Result) { out = append(out, res) })
	return out
}

// TestParallelSweepMatchesSerial is the determinism contract: fanning
// seeds across goroutines, recycling events/segments through the pools,
// and re-running on a process whose pools are already warm must all be
// bit-for-bit identical to the serial sweep.
func TestParallelSweepMatchesSerial(t *testing.T) {
	h := Harness{Runs: 4, Seed: 11}
	base := Options{Mode: browser.ModeSPDY, Network: NetWiFi, Sites: webpage.Table1()[:8]}
	serial := sweepResults(NewRunner(1), h, base)
	par := sweepResults(NewRunner(4), h, base)

	// Pooled-after-reuse: one full sweep recycles thousands of events and
	// segments through the free lists; resetting the cache forces a second
	// sweep to re-simulate every condition on that reused state.
	reuse := NewRunner(2)
	sweepResults(reuse, h, base)
	reuse.ResetCache()
	reused := sweepResults(reuse, h, base)

	unpooled := unpooledSweep(h, base)

	for name, got := range map[string][]*Result{
		"parallel": par, "pooled-after-reuse": reused, "unpooled": unpooled,
	} {
		compareSweeps(t, name, serial, got)
	}
}

// TestUnpooledHTTPMatchesPooled is the unpooled leg on the HTTP arm over
// 3G, whose pool of short connections reuses a pair's record once the
// pair is over (pooled) or never (unpooled): some 70 connections a page,
// with the radio's promotion stalls holding their segments on the wire.
// The SPDY arm's one connection never gives its record back, so only
// this arm shows a read through a record that another connection holds
// by now — most plainly in the sampler's bytes in flight, which sums
// over the records held.
func TestUnpooledHTTPMatchesPooled(t *testing.T) {
	h := Harness{Runs: 2, Seed: 11}
	base := Options{Mode: browser.ModeHTTP, Network: Net3G, Sites: webpage.Table1()[:8]}
	compareSweeps(t, "unpooled", sweepResults(NewRunner(1), h, base), unpooledSweep(h, base))
}

// unpooledSweep runs the sweep serially with the free lists disabled
// entirely: every event and segment freshly allocated, and no TCP pair's
// record reused.
func unpooledSweep(h Harness, base Options) []*Result {
	sim.SetEventRecycling(false)
	tcpsim.SetSegmentPooling(false)
	defer sim.SetEventRecycling(true)
	defer tcpsim.SetSegmentPooling(true)
	return sweepResults(NewRunner(1), h, base)
}

// compareSweeps holds got to serial run by run: seeds in order, every
// page's PLT, retransmissions, every telemetry sample's values, the
// duration, every TCP endpoint's counters and the full probe trace.
func compareSweeps(t *testing.T, name string, serial, got []*Result) {
	t.Helper()
	if len(serial) != len(got) {
		t.Fatalf("%s: length %d vs %d", name, len(serial), len(got))
	}
	for i := range serial {
		s, g := serial[i], got[i]
		if s.Opts.Seed != g.Opts.Seed {
			t.Fatalf("%s run %d: seed %d vs %d (ordering broken)", name, i, s.Opts.Seed, g.Opts.Seed)
		}
		sp, gp := s.PLTSeconds(), g.PLTSeconds()
		if len(sp) != len(gp) {
			t.Fatalf("%s run %d: %d vs %d pages", name, i, len(sp), len(gp))
		}
		for j := range sp {
			if sp[j] != gp[j] {
				t.Fatalf("%s run %d page %d: PLT %v vs %v", name, i, j, sp[j], gp[j])
			}
		}
		if s.Retransmissions() != g.Retransmissions() {
			t.Fatalf("%s run %d: retx %d vs %d", name, i, s.Retransmissions(), g.Retransmissions())
		}
		if len(s.Samples) != len(g.Samples) {
			t.Fatalf("%s run %d: %d vs %d samples", name, i, len(s.Samples), len(g.Samples))
		}
		for j := range s.Samples {
			if s.Samples[j] != g.Samples[j] {
				t.Fatalf("%s run %d sample %d: %+v vs %+v", name, i, j, s.Samples[j], g.Samples[j])
			}
		}
		if s.Duration != g.Duration {
			t.Fatalf("%s run %d: duration %v vs %v", name, i, s.Duration, g.Duration)
		}
		if !slices.Equal(s.Net.Conns(), g.Net.Conns()) {
			t.Fatalf("%s run %d: TCP endpoint counters diverge", name, i)
		}
		compareRecorders(t, name, i, s.Recorder, g.Recorder)
	}
}

// compareRecorders checks the full columnar probe trace, not just its
// length: every retained sample and every exact aggregate must match.
func compareRecorders(t *testing.T, name string, run int, want, got *tcpsim.Recorder) {
	t.Helper()
	if want.Len() != got.Len() || want.TotalSamples() != got.TotalSamples() {
		t.Fatalf("%s run %d: recorder %d/%d retained vs %d/%d",
			name, run, want.Len(), want.TotalSamples(), got.Len(), got.TotalSamples())
	}
	if want.MeanCwnd() != got.MeanCwnd() || want.MaxCwnd() != got.MaxCwnd() {
		t.Fatalf("%s run %d: cwnd aggregates diverge", name, run)
	}
	for _, ev := range tcpsim.Events() {
		if want.Count(ev) != got.Count(ev) {
			t.Fatalf("%s run %d: %s count %d vs %d", name, run, ev, want.Count(ev), got.Count(ev))
		}
	}
	for i := 0; i < want.Len(); i++ {
		if want.Get(i) != got.Get(i) {
			t.Fatalf("%s run %d: sample %d diverges:\n%+v\n%+v", name, run, i, want.Get(i), got.Get(i))
		}
	}
}

// gate: race-repeat
func TestSweepMemoizesAcrossCalls(t *testing.T) {
	r := NewRunner(2)
	h := Harness{Runs: 3, Seed: 1}
	base := Options{Mode: browser.ModeHTTP, Network: NetWiFi, Sites: webpage.Table1()[:4]}
	first := sweepResults(r, h, base)
	if s := r.CacheStats(); s.Misses != 3 || s.Hits != 0 {
		t.Fatalf("first sweep: %+v", s)
	}
	second := sweepResults(r, h, base)
	if s := r.CacheStats(); s.Misses != 3 || s.Hits != 3 {
		t.Fatalf("second sweep: %+v", s)
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("run %d: cache returned a different result instance", i)
		}
	}
	if n := r.CachedConditions(); n != 3 {
		t.Fatalf("%d conditions cached, want 3", n)
	}
	r.ResetCache()
	if n := r.CachedConditions(); n != 0 {
		t.Fatalf("%d conditions cached after reset", n)
	}
	if s := r.CacheStats(); s.Hits != 0 || s.Misses != 0 {
		t.Fatalf("stats not reset: %+v", s)
	}
}

// TestCacheEvictsLRUBeyondCapacity bounds resident memory: the least
// recently used run is dropped once the capacity is exceeded.
func TestCacheEvictsLRUBeyondCapacity(t *testing.T) {
	r := NewRunner(1)
	r.SetCacheCapacity(2)
	sites := webpage.Table1()[:2]
	optA := Options{Mode: browser.ModeHTTP, Network: NetWiFi, Seed: 1, Sites: sites}
	optB := Options{Mode: browser.ModeHTTP, Network: NetWiFi, Seed: 2, Sites: sites}
	optC := Options{Mode: browser.ModeHTTP, Network: NetWiFi, Seed: 3, Sites: sites}
	a := r.Run(optA)
	r.Run(optB)
	r.Run(optA) // A most recently used
	r.Run(optC) // evicts B
	if n := r.CachedConditions(); n != 2 {
		t.Fatalf("%d conditions cached, want 2", n)
	}
	if got := r.Run(optA); got != a {
		t.Fatal("recently-used A was evicted")
	}
	before := r.CacheStats()
	r.Run(optB) // must re-simulate
	after := r.CacheStats()
	if after.Misses != before.Misses+1 {
		t.Fatalf("evicted B served from cache (misses %d -> %d)", before.Misses, after.Misses)
	}
}

// TestConcurrentIdenticalRunsComputeOnce checks the singleflight
// property: simultaneous lookups of one condition simulate it once.
func TestConcurrentIdenticalRunsComputeOnce(t *testing.T) {
	r := NewRunner(4)
	opts := Options{Mode: browser.ModeHTTP, Network: NetWiFi, Seed: 3, Sites: webpage.Table1()[:4]}
	results := make([]*Result, 8)
	var wg sync.WaitGroup
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = r.Run(opts)
		}(i)
	}
	wg.Wait()
	for i := 1; i < len(results); i++ {
		if results[i] != results[0] {
			t.Fatalf("goroutine %d got a different result instance", i)
		}
	}
	if s := r.CacheStats(); s.Misses != 1 {
		t.Fatalf("condition simulated %d times, want 1 (%+v)", s.Misses, s)
	}
}

// TestRunShortThinkTimeCompletesAllRecords is the regression test for
// the nil-record crash: with a short ThinkTime the nominal end of the
// session arrives before the later pages finish loading, and Run used to
// leave records[i] == nil, nil-dereferencing in PLTSeconds. The loop now
// runs until every page callback fires (bounded by the page watchdog).
func TestRunShortThinkTimeCompletesAllRecords(t *testing.T) {
	res := Run(Options{
		Mode:      browser.ModeHTTP,
		Network:   Net3G,
		Seed:      2,
		Sites:     webpage.Table1()[:3],
		ThinkTime: 2 * time.Second,
	})
	if len(res.Records) != 3 {
		t.Fatalf("%d records, want 3", len(res.Records))
	}
	complete := 0
	for _, rec := range res.Records {
		if rec != nil {
			complete++
		}
	}
	if complete+res.Incomplete != len(res.Records) {
		t.Fatalf("complete %d + incomplete %d != %d", complete, res.Incomplete, len(res.Records))
	}
	// The watchdog guarantees every callback eventually fires within the
	// hard cap, so nothing should be left incomplete.
	if res.Incomplete != 0 {
		t.Errorf("%d pages incomplete despite watchdog", res.Incomplete)
	}
	plts := res.PLTSeconds() // must not panic
	if len(plts) != complete {
		t.Fatalf("%d PLTs for %d complete pages", len(plts), complete)
	}
	for i, p := range plts {
		if p <= 0 {
			t.Errorf("page %d: non-positive PLT %v", i, p)
		}
	}
	if len(res.PLTBySite()) != complete {
		t.Fatalf("PLTBySite covered %d pages, want %d", len(res.PLTBySite()), complete)
	}
}

// TestSweepSharedRunnerParallelism sanity-checks the package-level
// helpers the experiments use.
//
// gate: race-repeat
func TestSweepSharedRunnerParallelism(t *testing.T) {
	if DefaultRunner().Parallelism() < 1 {
		t.Fatal("shared runner has no workers")
	}
	SetParallelism(2)
	if got := DefaultRunner().Parallelism(); got != 2 {
		t.Fatalf("parallelism %d after SetParallelism(2)", got)
	}
	SetParallelism(0) // back to GOMAXPROCS
	if DefaultRunner().Parallelism() < 1 {
		t.Fatal("shared runner lost its workers")
	}
}

// goroutineID names the calling goroutine from its stack header.
func goroutineID() string {
	buf := make([]byte, 64)
	return strings.Fields(string(buf[:runtime.Stack(buf, false)]))[1]
}

// raiseMax lifts m to v if v is larger.
func raiseMax(m *atomic.Int64, v int64) {
	for cur := m.Load(); v > cur && !m.CompareAndSwap(cur, v); cur = m.Load() {
	}
}

// TestOrderedFanOut drives the sweep engine with fake work whose delay
// depends on the index, so items finish out of order: emit must still
// see index order on the caller's goroutine, no more than width items may
// run at once, and no more than window may be started but not emitted.
//
// gate: race-repeat
func TestOrderedFanOut(t *testing.T) {
	caller := goroutineID()
	for _, n := range []int{0, 1, 2, 7, 20} {
		for _, width := range []int{1, 2, 3, 8} {
			for _, window := range []int{0, 1, 2, 3} {
				name := fmt.Sprintf("n=%d width=%d window=%d", n, width, window)
				var running, maxRunning, pending, maxPending atomic.Int64
				var log []string // width 1 only: run and emit interleaving
				var got []int
				fanOut(width, n, window, func(i int) int {
					raiseMax(&maxRunning, running.Add(1))
					raiseMax(&maxPending, pending.Add(1))
					if width == 1 {
						log = append(log, fmt.Sprintf("run %d on %s", i, goroutineID()))
					}
					time.Sleep(time.Duration((i*7)%5) * 300 * time.Microsecond) //lint:allow determinism fake work that finishes out of index order; nothing simulated reads it
					running.Add(-1)
					return i
				}, func(i int) {
					if id := goroutineID(); id != caller {
						t.Errorf("%s: item %d emitted on goroutine %s, not the caller's %s", name, i, id, caller)
					}
					if width == 1 {
						log = append(log, fmt.Sprintf("emit %d", i))
					}
					got = append(got, i)
					pending.Add(-1)
				})
				for i, v := range got {
					if v != i {
						t.Fatalf("%s: emit order %v", name, got)
					}
				}
				if len(got) != n {
					t.Fatalf("%s: %d items emitted", name, len(got))
				}
				if m := maxRunning.Load(); m > int64(width) {
					t.Errorf("%s: %d items ran at once", name, m)
				}
				if m := maxPending.Load(); window > 0 && m > int64(window) {
					t.Errorf("%s: %d items started but not emitted", name, m)
				}
				if width == 1 {
					for i := 0; i < n; i++ {
						if log[2*i] != fmt.Sprintf("run %d on %s", i, caller) || log[2*i+1] != fmt.Sprintf("emit %d", i) {
							t.Fatalf("%s: not serial on the caller: %v", name, log)
						}
					}
				}
			}
		}
	}
}
