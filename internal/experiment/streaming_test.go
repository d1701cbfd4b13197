package experiment

import (
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"spdier/internal/browser"
	"spdier/internal/netem"
	"spdier/internal/stats"
	"spdier/internal/webpage"
)

// TestRunStatsLeanMatchesFull: distilling a lean (rare-only probe) run
// must produce exactly the aggregates of the full-trace run — the
// property that lets aggregate-only sweeps skip the columnar trace.
func TestRunStatsLeanMatchesFull(t *testing.T) {
	base := Options{Mode: browser.ModeSPDY, Network: Net3G, Seed: 5, Sites: webpage.Table1()[:5]}
	full := NewRunStats(Run(base))
	lean := base
	lean.LeanProbe = true
	got := NewRunStats(Run(lean))
	if !reflect.DeepEqual(got, full) {
		t.Fatalf("lean RunStats differ from full:\n got %+v\nwant %+v", got, full)
	}
}

// TestRunStatsMatchesSweepDerivation: the distilled vectors must
// reproduce what a sweep over full Results derives by hand.
func TestRunStatsMatchesSweepDerivation(t *testing.T) {
	h := Harness{Runs: 3, Seed: 9}
	base := Options{Mode: browser.ModeHTTP, Network: NetWiFi, Sites: webpage.Table1()[:4]}
	var plts []float64
	bySite := make(map[int][]float64)
	var retx float64
	for _, res := range sweepResults(NewRunner(1), h, base) {
		plts = append(plts, res.PLTSeconds()...)
		for site, plt := range res.PLTBySite() {
			bySite[site] = append(bySite[site], plt)
		}
		retx += float64(res.Retransmissions())
	}
	rs := NewRunner(1).SweepStats(h, base)

	if got := allPLTStats(rs); !reflect.DeepEqual(got, plts) {
		t.Fatalf("allPLTs mismatch:\n got %v\nwant %v", got, plts)
	}
	if got := pltBySiteStats(rs); !reflect.DeepEqual(got, bySite) {
		t.Fatalf("pltBySite mismatch:\n got %v\nwant %v", got, bySite)
	}
	if got, want := meanRetxStats(rs), retx/float64(h.Runs); got != want {
		t.Fatalf("meanRetx mismatch: %v vs %v", got, want)
	}
}

// sweepPinRuns and sweepPinWidths are the sweep-order table: run counts
// below, at and across the 16-seed shard boundary, at three pool widths.
var (
	sweepPinRuns   = []int{1, 5, 16, 17, 33}
	sweepPinWidths = []int{1, 2, 4}
)

// runStatsDigest renders every field of one run's aggregates; %v prints
// floats in their shortest round-trip form, so equal digests are equal
// bits.
func runStatsDigest(rs *RunStats) string { return fmt.Sprintf("%+v", *rs) }

// TestSweepStatsParallelMatchesSerial: per-run aggregates must arrive in
// seed order and be bit-identical to the unmemoized runs at any run count
// and pool width, including when lean runs replay from the aggregate
// cache.
//
// gate: race-repeat
func TestSweepStatsParallelMatchesSerial(t *testing.T) {
	h := Harness{Seed: 11}
	base := Options{Mode: browser.ModeSPDY, Network: NetWiFi, Sites: webpage.Table1()[:1]}
	want := make([]string, sweepPinRuns[len(sweepPinRuns)-1])
	for i := range want {
		opts := base
		opts.Seed = h.Seed + uint64(i)
		want[i] = runStatsDigest(NewRunStats(Run(opts)))
	}
	for _, runs := range sweepPinRuns {
		for _, width := range sweepPinWidths {
			h.Runs = runs
			rs := NewRunner(width).SweepStats(h, base)
			if len(rs) != runs {
				t.Fatalf("runs=%d width=%d: %d aggregates", runs, width, len(rs))
			}
			for i, s := range rs {
				if s.Seed != h.Seed+uint64(i) {
					t.Fatalf("runs=%d width=%d: entry %d holds seed %d", runs, width, i, s.Seed)
				}
				if got := runStatsDigest(s); got != want[i] {
					t.Fatalf("runs=%d width=%d seed %d:\n got %s\nwant %s", runs, width, s.Seed, got, want[i])
				}
			}
		}
	}
	// Second pass on the same runner replays every entry from the
	// aggregate cache.
	h.Runs = 4
	r := NewRunner(4)
	r.SweepStats(h, base)
	if s := r.StreamCacheStats(); s.Misses != uint64(h.Runs) {
		t.Fatalf("first pass: %d stream misses, want %d", s.Misses, h.Runs)
	}
	cached := r.SweepStats(h, base)
	if s := r.StreamCacheStats(); s.Hits != uint64(h.Runs) {
		t.Fatalf("second pass: %d stream hits, want %d", s.Hits, h.Runs)
	}
	for i, s := range cached {
		if got := runStatsDigest(s); got != want[i] {
			t.Fatalf("cached seed %d:\n got %s\nwant %s", s.Seed, got, want[i])
		}
	}
}

// momentsFolder is a minimal Folder for the engine tests.
type momentsFolder struct {
	plt  stats.Moments
	pltQ stats.QuantileSketch
	n    int
}

func newMomentsFolder() Folder { return &momentsFolder{} }

func (f *momentsFolder) Fold(rs *RunStats) {
	for _, p := range rs.PLTs {
		f.plt.Add(p)
		f.pltQ.Add(p)
	}
	f.n++
}

func (f *momentsFolder) Merge(o Folder) {
	of := o.(*momentsFolder)
	f.plt.Merge(&of.plt)
	f.pltQ.Merge(&of.pltQ)
	f.n += of.n
}

// TestSweepStreamParallelMatchesSerial: the merged accumulator state must
// be bit-identical whether shards fill serially or across the worker
// pool. Runs > sweepShardSize forces a real multi-shard merge.
//
// gate: race-repeat
func TestSweepStreamParallelMatchesSerial(t *testing.T) {
	h := Harness{Runs: sweepShardSize + 3, Seed: 2}
	base := Options{Mode: browser.ModeHTTP, Network: NetWiFi, Sites: webpage.Table1()[:2]}
	serial := NewRunner(1).SweepStream(h, base, newMomentsFolder).(*momentsFolder)
	par := NewRunner(4).SweepStream(h, base, newMomentsFolder).(*momentsFolder)
	if !reflect.DeepEqual(par, serial) {
		t.Fatalf("parallel SweepStream state differs from serial:\n got %+v\nwant %+v", par, serial)
	}
	if serial.n != h.Runs {
		t.Fatalf("folded %d runs, want %d", serial.n, h.Runs)
	}
	if int(serial.plt.N()) != len(allPLTStats(NewRunner(1).SweepStats(h, base))) {
		t.Fatalf("fold count mismatch")
	}
}

// TestSweepEachOrderAndEquality: SweepEach must deliver, in seed order,
// Results bit-identical to the unmemoized runs at any run count and pool
// width.
//
// gate: race-repeat
func TestSweepEachOrderAndEquality(t *testing.T) {
	h := Harness{Seed: 21}
	base := Options{Mode: browser.ModeSPDY, Network: NetWiFi, Sites: webpage.Table1()[:1]}
	want := make([]string, sweepPinRuns[len(sweepPinRuns)-1])
	for i := range want {
		opts := base
		opts.Seed = h.Seed + uint64(i)
		want[i] = fmt.Sprint(resultRow(Run(opts), false))
	}
	for _, runs := range sweepPinRuns {
		for _, width := range sweepPinWidths {
			h.Runs = runs
			var seeds []uint64
			var digests []string
			NewRunner(width).SweepEach(h, base, func(res *Result) {
				seeds = append(seeds, res.Opts.Seed)
				digests = append(digests, fmt.Sprint(resultRow(res, false)))
			})
			if len(seeds) != runs {
				t.Fatalf("runs=%d width=%d: %d Results delivered", runs, width, len(seeds))
			}
			for i, seed := range seeds {
				if seed != h.Seed+uint64(i) {
					t.Fatalf("runs=%d width=%d: delivery order %v", runs, width, seeds)
				}
				if digests[i] != want[i] {
					t.Fatalf("runs=%d width=%d seed %d:\n got %s\nwant %s", runs, width, seed, digests[i], want[i])
				}
			}
		}
	}
}

// TestLeanRunNotReplayedAsFull: a lean Result must never satisfy a
// trace-walking caller's cache lookup, and vice versa the full Result
// must be reused for aggregates when already resident.
func TestLeanRunNotReplayedAsFull(t *testing.T) {
	opts := Options{Mode: browser.ModeHTTP, Network: NetWiFi, Seed: 3, Sites: webpage.Table1()[:2]}
	kFull, ok := CacheKey(opts)
	if !ok {
		t.Fatalf("expected cacheable options")
	}
	lean := opts
	lean.LeanProbe = true
	kLean, ok := CacheKey(lean)
	if !ok {
		t.Fatalf("expected cacheable lean options")
	}
	if kFull == kLean {
		t.Fatalf("lean and full runs share cache key %q", kFull)
	}

	// A runner that has computed aggregates via the lean path must still
	// produce a full trace when the Result is requested directly.
	r := NewRunner(1)
	rs := r.RunStats(opts)
	res := r.Run(opts)
	if res.Recorder.RareOnly() {
		t.Fatalf("full Run returned a rare-only recorder after lean aggregate pass")
	}
	if got := NewRunStats(res); !reflect.DeepEqual(got, rs) {
		t.Fatalf("aggregates from full trace differ from lean pass")
	}

	// The reverse order: with the full Result resident, RunStats must
	// peek it instead of simulating a lean twin.
	r2 := NewRunner(1)
	r2.Run(opts)
	miss := r2.CacheStats().Misses
	r2.RunStats(opts)
	if r2.CacheStats().Misses != miss {
		t.Fatalf("RunStats re-simulated despite resident full Result")
	}
}

// decliningExecutor reports a wide worker pool and declines every shard,
// as the fabric does for an unregistered folder or after a spawn failure.
type decliningExecutor struct{}

func (decliningExecutor) ExecuteShard(Harness, Options, int, func() Folder) Folder { return nil }
func (decliningExecutor) Workers() int                                             { return 8 }

// overlapFolder records how many shards are folding at once.
type overlapFolder struct {
	active, peak *atomic.Int64
	n            int
}

func (f *overlapFolder) Fold(*RunStats) {
	raiseMax(f.peak, f.active.Add(1))
	time.Sleep(200 * time.Microsecond) //lint:allow determinism fake fold cost so concurrent shards overlap; nothing simulated reads it
	f.active.Add(-1)
	f.n++
}

func (f *overlapFolder) Merge(o Folder) { f.n += o.(*overlapFolder).n }

// TestDeclinedShardsRespectParallelism: the dispatch width may follow the
// executor's worker count, but a shard it declines folds in-process under
// the runner's own pool, never at the wider fabric width.
//
// gate: race-repeat
func TestDeclinedShardsRespectParallelism(t *testing.T) {
	h := Harness{Runs: 6 * sweepShardSize, Seed: 1}
	base := Options{Mode: browser.ModeHTTP, Network: NetWiFi, Sites: webpage.Table1()[:1]}
	var active, peak atomic.Int64
	r := NewRunner(2)
	r.SetShardExecutor(decliningExecutor{})
	f := r.SweepStream(h, base, func() Folder { return &overlapFolder{active: &active, peak: &peak} })
	if n := f.(*overlapFolder).n; n != h.Runs {
		t.Fatalf("folded %d runs, want %d", n, h.Runs)
	}
	if p := peak.Load(); p > 2 {
		t.Fatalf("%d declined shards folded at once on a runner of parallelism 2", p)
	}

	// Two single-shard sweeps at once on NewRunner(1), declined or not:
	// each would run serially on its own caller, and only the runner's
	// one token keeps their folds apart.
	for _, ex := range []ShardExecutor{nil, decliningExecutor{}} {
		var active, peak atomic.Int64
		r := NewRunner(1)
		r.SetShardExecutor(ex)
		one := Harness{Runs: sweepShardSize, Seed: 1}
		var wg sync.WaitGroup
		for range 2 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				r.SweepStream(one, base, func() Folder { return &overlapFolder{active: &active, peak: &peak} })
			}()
		}
		wg.Wait()
		if p := peak.Load(); p > 1 {
			t.Fatalf("executor %T: %d single-shard sweeps folded at once on NewRunner(1)", ex, p)
		}
	}
}

// TestSweepEachSlowSeedDoesNotHoldBackTheNext: with two workers, seed 2
// starts as soon as seed 0 has been consumed, while seed 1 is still
// simulating; under a chunk barrier it waited for seed 1. Seeds 0, 2 and
// 3 replay from the cache and seed 1 simulates a full session, so seed 2
// has finished by the time seed 1 is delivered.
//
// gate: race-repeat
func TestSweepEachSlowSeedDoesNotHoldBackTheNext(t *testing.T) {
	h := Harness{Runs: 4, Seed: 1}
	base := Options{Mode: browser.ModeHTTP, Network: Net3G}
	r := NewRunner(2)
	for _, i := range []int{0, 2, 3} {
		r.Run(h.seeded(base, i))
	}
	var doneAtSeed1 uint64
	r.SweepEach(h, base, func(res *Result) {
		if res.Opts.Seed == h.Seed+1 {
			_, doneAtSeed1, _ = r.Progress()
		}
	})
	if doneAtSeed1 < 3 {
		t.Fatalf("%d runs done when seed 1 was delivered, want seeds 0, 1 and 2", doneAtSeed1)
	}
}

// TestNewRunStatsWritesEveryField: NewRunStats must fill every RunStats
// field, or the field reads zero in every sweep. One impaired SPDY run
// over 3G with all three recovery arms on drives every counter;
// Incomplete is copied from the Result, so the test sets it there.
func TestNewRunStatsWritesEveryField(t *testing.T) {
	res := Run(Options{
		Mode: browser.ModeSPDY, Network: Net3G, Seed: 3, Sites: webpage.Table1()[:6],
		TLP: true, RACK: true, FRTO: true,
		Impair: netem.Impairments{GEGoodToBad: 0.01, GEBadToGood: 0.3, GELossBad: 0.5},
	})
	res.Incomplete = 1
	rs := reflect.ValueOf(*NewRunStats(res))
	for i := 0; i < rs.NumField(); i++ {
		if rs.Field(i).IsZero() {
			t.Errorf("RunStats.%s is zero: NewRunStats does not derive it", rs.Type().Field(i).Name)
		}
	}
}
