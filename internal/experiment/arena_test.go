package experiment

import (
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"spdier/internal/browser"
	"spdier/internal/webpage"
)

// arenaArms are the ledger rows the arena tests run: http/3g, SPDY on
// 3G over four sessions (eight zlib contexts a run), h2/lte under bursty
// loss and quic/3g, each at seeds 1–3.
var arenaArms = []string{"http/3g/reno", "spdy/3g/sessions=4", "h2/lte/ge-loss", "quic/3g"}

func arenaRuns() []pinRun {
	var runs []pinRun
	for _, r := range sessionRuns() {
		if slices.Contains(arenaArms, r.name[:strings.LastIndexByte(r.name, '/')]) {
			runs = append(runs, r)
		}
	}
	return runs
}

// TestArenaRunOrderPermutation is the arena's proof obligation: the same
// runs on one arena, forward, reversed and interleaved across arms and
// seeds, each give the ledger row of a fresh Run — whatever the runs
// before it left in the loop storage and on the shelf.
//
// gate: race-repeat
func TestArenaRunOrderPermutation(t *testing.T) {
	ledger, runs := loadPins(t), arenaRuns()
	if len(runs) != 3*len(arenaArms) {
		t.Fatalf("%d ledger runs for %d arms", len(runs), len(arenaArms))
	}
	forward := make([]int, len(runs))
	for i := range forward {
		forward[i] = i
	}
	reversed := slices.Clone(forward)
	slices.Reverse(reversed)
	var interleaved []int // seed-major, arms alternating: runs is arm-major
	for seed := 0; seed < 3; seed++ {
		for arm := range arenaArms {
			interleaved = append(interleaved, 3*arm+seed)
		}
	}
	for _, o := range []struct {
		name  string
		order []int
	}{{"forward", forward}, {"reversed", reversed}, {"interleaved", interleaved}} {
		t.Run(o.name, func(t *testing.T) {
			t.Parallel()
			a := new(runArena)
			for _, i := range o.order {
				r := runs[i]
				if drift := diffRow(r.name, resultRow(run(r.opts, a, nil), false), ledger[r.name]); drift != "" {
					t.Errorf("on a used arena:\n%s", drift)
				}
			}
		})
	}
}

// arenaBlocks maps every block of memory a holds to its capacity: the
// loop storage's slot pool, free list and drain scratch, and each spare
// zlib context (capacity 1).
func arenaBlocks(a *runArena) map[unsafe.Pointer]int {
	blocks := make(map[unsafe.Pointer]int)
	add := func(v reflect.Value) {
		if v.Cap() > 0 {
			blocks[v.UnsafePointer()] = v.Cap()
		}
	}
	st := reflect.ValueOf(&a.loop).Elem()
	add(st.FieldByName("slots"))
	add(st.FieldByName("free"))
	add(st.FieldByName("scratch"))
	spare := reflect.ValueOf(&a.shelf).Elem().FieldByName("spare")
	for i := 0; i < spare.Len(); i++ {
		blocks[spare.Index(i).UnsafePointer()] = 1
	}
	return blocks
}

// TestArenaSecondPassAddsNoBlock: forty runs of four arms on one arena,
// then the same forty again. The second pass adds no block and grows
// none: the slot pool, the scratch and the shelf hold what the busiest
// run needed, whichever runs came before.
func TestArenaSecondPassAddsNoBlock(t *testing.T) {
	modes := []struct {
		mode browser.Mode
		net  NetworkKind
	}{{browser.ModeHTTP, Net3G}, {browser.ModeSPDY, Net3G}, {browser.ModeH2, NetLTE}, {browser.ModeQUIC, Net3G}}
	a := new(runArena)
	pass := func() {
		for seed := uint64(1); seed <= 10; seed++ {
			for _, m := range modes {
				opts := spdyArenaOpts(seed)
				opts.Mode, opts.Network = m.mode, m.net
				run(opts, a, nil)
			}
		}
	}
	pass()
	first := arenaBlocks(a)
	pass()
	second := arenaBlocks(a)
	for p, c := range second {
		if first[p] != c {
			t.Errorf("the second pass allocated or grew a block (capacity %d, was %d)", c, first[p])
		}
	}
	if len(second) != len(first) {
		t.Errorf("the arena holds %d blocks after the second pass, %d after the first", len(second), len(first))
	}
}

// spdyArenaOpts is a six-site SPDY session over 3G.
func spdyArenaOpts(seed uint64) Options {
	return Options{Mode: browser.ModeSPDY, Network: Net3G, Seed: seed, Sites: webpage.Table1()[:6]}
}

// TestWarmArenaAllocatesNoContextOrBucket: a run repeated on the arena
// its first attempt left borrows every zlib context and the slot and
// scratch arrays that run used, and grows none of them; the wheel's
// buckets are lists through the slots, so they need no memory of their
// own.
func TestWarmArenaAllocatesNoContextOrBucket(t *testing.T) {
	r := NewRunner(1)
	opts := spdyArenaOpts(1)
	r.Run(opts)
	a := r.acquire()
	cold := arenaBlocks(a)
	contexts := reflect.ValueOf(&a.shelf).Elem().FieldByName("spare").Len()
	r.release(a)
	if contexts < 2 {
		t.Fatalf("a SPDY run left %d zlib contexts on the shelf, want one for each end", contexts)
	}
	r.ResetCache()
	r.Run(opts)
	a = r.acquire()
	defer r.release(a)
	warm := arenaBlocks(a)
	for p, c := range warm {
		if cold[p] != c {
			t.Errorf("the repeat run allocated or grew a block (capacity %d, was %d)", c, cold[p])
		}
	}
	if len(warm) != len(cold) {
		t.Errorf("the arena holds %d blocks after the repeat run, %d after the first", len(warm), len(cold))
	}
}

// TestResultsDoNotPinTheArena extends TestResultsDoNotPinTheBrowser to
// the worker arena: a Result kept from a SweepEach run reads the same
// after its arena has served ten more runs, and reaches neither the
// arena's loop storage nor its zlib contexts — with the Runner gone,
// every block the arena held is collected while the Result lives on.
func TestResultsDoNotPinTheArena(t *testing.T) {
	r := NewRunner(1)
	var kept *Result
	r.SweepEach(Harness{Runs: 1, Seed: 2}, spdyArenaOpts(0), func(res *Result) { kept = res })
	read := func() string {
		return fmt.Sprint(resultRow(kept, true), *NewRunStats(kept), kept.PLTBySite(), kept.ThroughputSeries())
	}
	before := read()
	modes := []browser.Mode{browser.ModeSPDY, browser.ModeHTTP, browser.ModeH2, browser.ModeQUIC}
	for i := 0; i < 10; i++ {
		opts := spdyArenaOpts(uint64(100 + i))
		opts.Mode = modes[i%len(modes)]
		r.Run(opts)
	}
	if after := read(); after != before {
		t.Fatalf("the kept Result reads differently after ten more runs on its arena:\n%s\nwas\n%s", after, before)
	}

	a := r.acquire()
	var watched, collected atomic.Int64
	for p, c := range arenaBlocks(a) {
		if c < 4 {
			continue // a block this small may share a tiny allocation
		}
		watched.Add(1)
		runtime.SetFinalizer((*byte)(p), func(*byte) { collected.Add(1) })
	}
	if watched.Load() == 0 {
		t.Fatal("the arena holds no block to watch")
	}
	r, a = nil, nil
	for i := 0; i < 100 && collected.Load() < watched.Load(); i++ {
		runtime.GC()
		time.Sleep(time.Millisecond) //lint:allow determinism gives the finalizer goroutine a turn; nothing simulated reads it
	}
	if n, w := collected.Load(), watched.Load(); n != w {
		t.Fatalf("%d of the arena's %d blocks are still reachable from a kept Result", w-n, w)
	}
	if after := read(); after != before {
		t.Fatal("the kept Result reads differently once its arena is gone")
	}
}

// TestEverySimulationTakesAToken: with the only token of NewRunner(1)
// held, no entry point may simulate; given back, each completes, which
// it could not if it took a second token while holding one.
//
// gate: race-repeat
func TestEverySimulationTakesAToken(t *testing.T) {
	base := Options{Mode: browser.ModeHTTP, Network: NetWiFi, Sites: webpage.Table1()[:1]}
	h := Harness{Runs: 1, Seed: 1}
	paths := []struct {
		name string
		run  func(r *Runner)
	}{
		{"Run", func(r *Runner) { r.Run(base) }},
		{"RunStats", func(r *Runner) { r.RunStats(base) }},
		{"SweepStats", func(r *Runner) { r.SweepStats(h, base) }},
		{"SweepEach", func(r *Runner) { r.SweepEach(h, base, func(*Result) {}) }},
		{"SweepStream", func(r *Runner) { r.SweepStream(h, base, newCountingFolder) }},
		{"FillShard", func(r *Runner) { r.FillShard(h, base, 0, newCountingFolder(), nil) }},
		{"declined shard", func(r *Runner) {
			r.SetShardExecutor(decliningExecutor{})
			r.SweepStream(h, base, newCountingFolder)
		}},
	}
	for _, path := range paths {
		t.Run(path.name, func(t *testing.T) {
			t.Parallel()
			r := NewRunner(1)
			a := r.acquire()
			done := make(chan struct{})
			go func() {
				path.run(r)
				close(done)
			}()
			select { //lint:allow determinism a race between the run and a wall-clock wait is the test; nothing simulated reads it
			case <-done:
				t.Fatal("simulated while the runner's only token was held")
			case <-time.After(300 * time.Millisecond): //lint:allow determinism long enough for an unguarded run to finish; nothing simulated reads it
			}
			r.release(a)
			select { //lint:allow determinism a deadlock guard; nothing simulated reads it
			case <-done:
			case <-time.After(time.Minute): //lint:allow determinism the deadlock guard's deadline; nothing simulated reads it
				t.Fatal("no completion with the token given back: a path takes a token while holding one")
			}
		})
	}
}

// countingFolder counts the runs folded into it.
type countingFolder struct{ n int }

func newCountingFolder() Folder          { return &countingFolder{} }
func (f *countingFolder) Fold(*RunStats) { f.n++ }
func (f *countingFolder) Merge(o Folder) { f.n += o.(*countingFolder).n }
