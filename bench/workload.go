package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"time"

	"spdier/internal/browser"
	"spdier/internal/experiment"
	"spdier/internal/webpage"
)

// condition is one simulated arm: the Options every run of it shares.
// The simulator receives only these plus a seed or generated pages.
type condition struct {
	label string // digest-key prefix
	opts  experiment.Options
}

func arm(mode browser.Mode, network experiment.NetworkKind) condition {
	return condition{
		label: string(mode) + "/" + string(network),
		opts:  experiment.Options{Mode: mode, Network: network},
	}
}

// workload is one named set of inputs. The load generator is this
// process, closed loop: the next run starts when the previous one ends.
type workload struct {
	name  string
	why   string // kept in step with BENCHMARK.json
	conds []condition
	// seeds is K: runs per round on an arm workload, seeds per streamed
	// condition on the sweep.
	seeds int
	sweep bool
}

var workloads = []workload{
	{
		name:  "http-wifi",
		why:   "hundreds of short connections per session: tcpsim set-up, httpwire sizing, browser pools; no rrc, spdy, h2, QUIC",
		conds: []condition{arm(browser.ModeHTTP, experiment.NetWiFi)},
		seeds: 30,
	},
	{
		name:  "spdy-3g",
		why:   "the paper's headline arm: one multiplexed connection through RRC promotions and spurious RTOs; flate sizing, wide window",
		conds: []condition{arm(browser.ModeSPDY, experiment.Net3G)},
		seeds: 30,
	},
	{
		name:  "h2-lte",
		why:   "the cheapest arm (HPACK sizer, flow control, LTE DRX): fixed cost per run and sim/netem per-event cost weigh most",
		conds: []condition{arm(browser.ModeH2, experiment.NetLTE)},
		seeds: 60,
	},
	{
		name:  "quic-3g",
		why:   "the only workload on tcpsim/quic.go and proxy.QUICSession with 0-RTT; tcpsim.Conn and flate are bypassed",
		conds: []condition{arm(browser.ModeQUIC, experiment.Net3G)},
		seeds: 30,
	},
	{
		name: "sweep-3g",
		why:  "the same layers through the Runner: parallel SweepStream, SweepEach with full Results, cached replays; shared-state cost shows",
		conds: []condition{
			{label: "http/3g", opts: experiment.Options{Mode: browser.ModeHTTP, Network: experiment.Net3G}},
			{label: "spdy/3g", opts: experiment.Options{Mode: browser.ModeSPDY, Network: experiment.Net3G}},
		},
		seeds: 32,
		sweep: true,
	},
}

// The sweep's store-everything pass: the figure path, with the full
// recorder at the default probe stride, the Result cache and the
// recovery arms.
var sweepEachCond = condition{
	label: "spdy/3g+tlp+rack+frto",
	opts: experiment.Options{
		Mode: browser.ModeSPDY, Network: experiment.Net3G,
		TLP: true, RACK: true, FRTO: true,
	},
}

const (
	sweepEachSeeds = 16
	sweepReplays   = 50 // cached repeats of the streamed pass per round
)

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// sweepWorkers is the sweep's load-generator width.
func sweepWorkers() int {
	if n := runtime.GOMAXPROCS(0); n < 4 {
		return n
	}
	return 4
}

// digest condenses what a run simulated. A change that only makes the
// simulator faster must leave every digest identical.
func digest(seed, fired uint64, incomplete int, plts []float64, retx int, radioMJ float64) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	put(seed)
	put(fired)
	put(uint64(incomplete))
	put(uint64(len(plts)))
	for _, p := range plts {
		put(math.Float64bits(p))
	}
	put(uint64(retx))
	put(math.Float64bits(radioMJ))
	return h.Sum64()
}

// checker decides whether each run's output is correct: every page
// loaded, the same digest in every round, and at the default seed the
// digest committed in testdata/digests.json.
type checker struct {
	committed map[string]string // nil: no committed comparison
	seen      map[string]string // first digest per key in this process
	attempted int
	failed    int
	problems  []string
}

func newChecker(committed map[string]string) *checker {
	return &checker{committed: committed, seen: map[string]string{}}
}

func (c *checker) verify(key string, d uint64, incomplete int) bool {
	hex := fmt.Sprintf("%016x", d)
	why := ""
	switch {
	case incomplete > 0:
		why = fmt.Sprintf("%d pages incomplete", incomplete)
	case c.seen[key] != "" && c.seen[key] != hex:
		why = fmt.Sprintf("digest %s differs from an earlier round's %s", hex, c.seen[key])
	case c.committed != nil && c.committed[key] != hex:
		why = fmt.Sprintf("digest %s differs from the committed %q", hex, c.committed[key])
	}
	if c.seen[key] == "" {
		c.seen[key] = hex
	}
	if why != "" && len(c.problems) < 20 {
		c.problems = append(c.problems, key+": "+why)
	}
	return why == ""
}

// run records one simulated run.
func (c *checker) run(key string, d uint64, incomplete int) {
	c.attempted++
	if !c.verify(key, d, incomplete) {
		c.failed++
	}
}

// replay checks a cached replay, which is not a simulated run and so
// counts as attempted only when it is wrong.
func (c *checker) replay(key string, d uint64, incomplete int) {
	if !c.verify(key, d, incomplete) {
		c.attempted++
		c.failed++
	}
}

// sample is the cost of one unit of work: one seed's run on an arm
// workload, one sweep pass on sweep-3g.
type sample struct {
	wall, cpu time.Duration
}

// round is one repetition of the workload's fixed amount of work.
type round struct {
	units []sample // same length and order every round
	// calib holds the round's calibration loops: one just before each
	// run of an arm workload, one just after each run inside the sweep's
	// passes (see calib.go).
	calib   []sample
	pages   int
	mallocs uint64
	bytes   uint64
	// Sweep only: the cached-replay pass, timed apart from the units.
	replay     sample
	replayRuns int
	hitRate    float64
}

func (r round) wall() (d time.Duration) {
	for _, u := range r.units {
		d += u.wall
	}
	return d
}

func (r round) cpu() (d time.Duration) {
	for _, u := range r.units {
		d += u.cpu
	}
	return d
}

// bench runs one workload. The untraced and the traced pass are the same
// code; they differ only in tr and led being nil or not.
type bench struct {
	w     *workload
	seed  uint64
	sites []webpage.SiteSpec
	chk   *checker
	cal   *calibrator
	fold  experiment.Folder // the registered plt folder every run folds into
	tr    *tracer
	led   *ledger
	runMS []float64 // every experiment.Run this process timed, ms
	// afterRound, if set, is called with each finished round, outside
	// every stopwatch.
	afterRound func(round)
}

// stopwatch measures one unit of work: wall time and process CPU time.
type stopwatch struct {
	t0   time.Time
	cpu0 time.Duration
}

func startWatch() stopwatch { return stopwatch{t0: time.Now(), cpu0: cpuTime()} }

// startUnit takes an arm unit's calibration loop into r, then starts
// timing the unit.
func (b *bench) startUnit(r *round) stopwatch {
	r.calib = append(r.calib, b.cal.loop())
	return startWatch()
}

func (s stopwatch) stop() sample {
	return sample{wall: time.Since(s.t0), cpu: cpuTime() - s.cpu0}
}

// runOnce is the per-run pipeline a sweep applies: generate the pages,
// simulate the session, distill it, fold it. The run is one unit of r.
func (b *bench) runOnce(c condition, seed uint64, r *round) {
	b.tr.setRun(fmt.Sprintf("%s/%d", b.w.name, seed))
	sw := b.startUnit(r)
	root := b.tr.begin("run")

	id := b.tr.begin("webpage.generate")
	pages := experiment.GeneratePages(b.sites, seed)
	b.tr.end(id)

	opts := c.opts
	opts.Seed = seed
	opts.Pages = pages
	opts.LeanProbe = true
	id = b.tr.begin("experiment.run")
	t0 := time.Now()
	res := experiment.Run(opts)
	runTime := time.Since(t0)
	b.tr.end(id)

	id = b.tr.begin("experiment.distill")
	rs := experiment.NewRunStats(res)
	b.tr.end(id)

	id = b.tr.begin("stats.fold")
	b.fold.Fold(rs)
	b.tr.end(id)

	b.tr.end(root)
	r.units = append(r.units, sw.stop())
	r.pages += len(rs.PLTs)

	b.runMS = append(b.runMS, float64(runTime)/1e6)
	b.chk.run(fmt.Sprintf("%s/%d", c.label, seed),
		digest(seed, res.Fired, rs.Incomplete, rs.PLTs, rs.Retx, rs.RadioMJ), rs.Incomplete)
	if b.led != nil {
		b.led.observe(c, res, rs, pages, runTime)
	}
}

// armRound runs the workload's K seeds once.
func (b *bench) armRound(seeds int) round {
	var r round
	m0, b0 := heapCounters()
	for i := 0; i < seeds; i++ {
		b.runOnce(b.w.conds[0], b.seed+uint64(i), &r)
	}
	m1, b1 := heapCounters()
	r.mallocs, r.bytes = m1-m0, b1-b0
	return r
}

// countFolder is the sweep's page-counting accumulator. It also keeps
// each run's digest so the streamed and replayed passes are checked, and
// in a timed pass it takes a calibration loop after every run it folds,
// on the worker that ran it.
type countFolder struct {
	pages int
	runs  []foldedRun
	cal   *calibrator // nil: no loops
	loops []sample
}

type foldedRun struct {
	seed       uint64
	digest     uint64
	incomplete int
}

func newCountFolder() experiment.Folder { return &countFolder{} }

func (f *countFolder) Fold(rs *experiment.RunStats) {
	if f.cal != nil {
		f.loops = append(f.loops, f.cal.threadLoop())
	}
	f.pages += len(rs.PLTs)
	f.runs = append(f.runs, foldedRun{
		seed:       rs.Seed,
		digest:     digest(rs.Seed, 0, rs.Incomplete, rs.PLTs, rs.Retx, rs.RadioMJ),
		incomplete: rs.Incomplete,
	})
}

func (f *countFolder) Merge(o experiment.Folder) {
	of := o.(*countFolder)
	f.pages += of.pages
	f.runs = append(f.runs, of.runs...)
	f.loops = append(f.loops, of.loops...)
}

// without takes the loops that ran inside a unit out of its time: all of
// their CPU time, and their wall time shared among the par workers they
// ran on side by side.
func (u sample) without(loops []sample, par int) sample {
	for _, l := range loops {
		u.wall -= l.wall / time.Duration(par)
		u.cpu -= l.cpu
	}
	return u
}

// sweepRound drives a fresh Runner through (a) parallel SweepStream over
// the workload's conditions, (b) SweepEach keeping full Results, and
// (c) the streamed pass again, replays times, all cache hits.
func (b *bench) sweepRound(seeds, eachSeeds, replays int) round {
	var r round
	runner := experiment.NewRunner(sweepWorkers())
	h := experiment.Harness{Runs: seeds, Seed: b.seed}
	m0, b0 := heapCounters()

	// A timed pass gives each shard a folder with a calibrator of its own.
	stream := func(c condition, check func(string, uint64, int), timed bool) (pages int, loops []sample) {
		newShard := newCountFolder
		if timed {
			newShard = func() experiment.Folder { return &countFolder{cal: b.cal.fork()} }
		}
		f := runner.SweepStream(h, c.opts, newShard).(*countFolder)
		for _, fr := range f.runs {
			check(fmt.Sprintf("stream/%s/%d", c.label, fr.seed), fr.digest, fr.incomplete)
		}
		return f.pages, f.loops
	}
	// Shards are what SweepStream runs side by side.
	par := min(sweepWorkers(), experiment.ShardCount(seeds))
	for _, c := range b.w.conds {
		id := b.tr.begin("sweep.stream")
		sw := startWatch()
		pages, loops := stream(c, b.chk.run, true)
		r.units = append(r.units, sw.stop().without(loops, par))
		b.tr.end(id)
		r.calib = append(r.calib, loops...)
		r.pages += pages
	}

	if eachSeeds > 0 {
		id := b.tr.begin("sweep.each")
		sw := startWatch()
		var kept []*experiment.Result
		var loops []sample
		cal := b.cal.fork()
		he := experiment.Harness{Runs: eachSeeds, Seed: b.seed}
		// SweepEach hands the Results over one at a time on this goroutine.
		runner.SweepEach(he, sweepEachCond.opts, func(res *experiment.Result) {
			kept = append(kept, res)
			loops = append(loops, cal.threadLoop())
		})
		r.units = append(r.units, sw.stop().without(loops, 1))
		b.tr.end(id)
		r.calib = append(r.calib, loops...)
		for _, res := range kept {
			plts := res.PLTSeconds()
			r.pages += len(plts)
			b.chk.run(fmt.Sprintf("each/%s/%d", sweepEachCond.label, res.Opts.Seed),
				digest(res.Opts.Seed, res.Fired, res.Incomplete, plts, res.Retransmissions(), res.RadioMJ),
				res.Incomplete)
		}
	}
	m1, b1 := heapCounters()
	r.mallocs, r.bytes = m1-m0, b1-b0

	id := b.tr.begin("sweep.replay")
	sw := startWatch()
	for i := 0; i < replays; i++ {
		for _, c := range b.w.conds {
			stream(c, b.chk.replay, false)
			r.replayRuns += seeds
		}
	}
	r.replay = sw.stop()
	b.tr.end(id)
	r.hitRate = runner.StreamCacheStats().HitRate()
	return r
}

// measure repeats rounds until budget has passed, and at least twice so
// that the between-rounds digest check compares something. The traced
// pass shares the untraced pass's checker and so has its rounds to
// compare with: one round is enough for it.
func (b *bench) measure(budget time.Duration, smoke bool) []round {
	minRounds := 2
	if b.tr != nil {
		minRounds = 1
	}
	var rounds []round
	start := time.Now()
	for {
		var r round
		switch {
		case b.w.sweep && smoke:
			r = b.sweepRound(2, 2, 2)
		case b.w.sweep:
			r = b.sweepRound(b.w.seeds, sweepEachSeeds, sweepReplays)
		case smoke:
			r = b.armRound(2)
		default:
			r = b.armRound(b.w.seeds)
		}
		rounds = append(rounds, r)
		if b.afterRound != nil {
			b.afterRound(r)
		}
		if smoke || (len(rounds) >= minRounds && time.Since(start) >= budget) {
			return rounds
		}
	}
}
