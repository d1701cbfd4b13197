// Hot-path guardrail benchmarks. BenchmarkLoop and BenchmarkTransfer
// both assert their allocation budgets with testing.AllocsPerRun before
// timing anything, so a regression fails the benchmark run outright
// instead of silently shifting a trend line. Their headline numbers are
// collected and written to BENCH_hotpath.json by TestMain, which CI
// archives per commit.
//
//	go test -run '^$' -bench 'BenchmarkLoop$|BenchmarkTransfer$' -benchmem -benchtime=1x .
package spdier_test

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sync"
	"testing"
	"time"

	"spdier/internal/browser"
	"spdier/internal/experiment"
	"spdier/internal/fabric"
	"spdier/internal/netem"
	"spdier/internal/sim"
	"spdier/internal/tcpsim"
	"spdier/internal/webpage"
)

type benchReportT = struct {
	sync.Mutex
	m map[string]map[string]float64
}

// benchReport accumulates headline numbers from the guardrail
// benchmarks; TestMain serializes it to BENCH_hotpath.json after the
// run so the file reflects whichever benchmarks actually executed.
var benchReport = benchReportT{m: map[string]map[string]float64{}}

func reportBench(name string, metrics map[string]float64) {
	benchReport.Lock()
	benchReport.m[name] = metrics
	benchReport.Unlock()
}

// sweepReport collects the sweep-engine guardrail numbers separately, so
// BENCH_sweep.json tracks the population-scale path on its own trend
// line next to BENCH_hotpath.json.
var sweepReport = benchReportT{m: map[string]map[string]float64{}}

func reportSweep(name string, metrics map[string]float64) {
	sweepReport.Lock()
	sweepReport.m[name] = metrics
	sweepReport.Unlock()
}

// benchFiles names each BENCH file's report plus the benchmark entries
// it must never lose. A partial `-bench` run merges into the existing
// file instead of truncating it (a full-suite baseline survives
// single-benchmark runs), and a write that would still leave an expected
// entry missing fails loudly — that is exactly the corruption that once
// reduced BENCH_hotpath.json to a lone BenchmarkLoop entry.
var benchFiles = []struct {
	path     string
	report   *benchReportT
	expected []string
}{
	{"BENCH_hotpath.json", &benchReport, []string{"BenchmarkLoop", "BenchmarkPageLoadsPerHour", "BenchmarkTransfer"}},
	{"BENCH_sweep.json", &sweepReport, []string{"BenchmarkSweep", "BenchmarkSweepFabric"}},
}

// writeBenchFile merges a bench report into the existing file at path
// and rewrites it. Any failure — read, create, encode, close, or an
// expected benchmark entry missing from the merged result — is returned
// so TestMain can fail the run loudly: a silently truncated BENCH file
// breaks the perf trend line CI archives.
func writeBenchFile(path string, report *benchReportT, expected []string) error {
	report.Lock()
	defer report.Unlock()
	if len(report.m) == 0 {
		return nil
	}
	merged := map[string]map[string]float64{}
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &merged); err != nil {
			return fmt.Errorf("existing file unparsable (refusing to overwrite): %w", err)
		}
	} else if !os.IsNotExist(err) {
		return err
	}
	for name, metrics := range report.m {
		merged[name] = metrics
	}
	var missing []string
	for _, name := range expected {
		if _, ok := merged[name]; !ok {
			missing = append(missing, name)
		}
	}
	if len(missing) > 0 {
		return fmt.Errorf("benchmark entries %v missing after merge; run the full bench suite once to seed them", missing)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(merged); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func TestMain(m *testing.M) {
	// Fabric worker re-exec mode: the fabric tests spawn this test binary
	// as their worker process, gated by env so a normal `go test` run
	// never enters it.
	if os.Getenv("SPDYSIM_FABRIC_WORKER") == "1" {
		os.Exit(fabric.WorkerMain(os.Stdin, os.Stdout))
	}
	code := m.Run()
	for _, bf := range benchFiles {
		if err := writeBenchFile(bf.path, bf.report, bf.expected); err != nil {
			os.Stderr.WriteString("writing " + bf.path + ": " + err.Error() + "\n")
			if code == 0 {
				code = 1
			}
		}
	}
	os.Exit(code)
}

// BenchmarkLoop times the event-loop hot path — schedule with After,
// fire via RunUntilIdle — on a warm slot pool, and asserts it is
// allocation-free. The clock does not move within a round, so it times
// the batch path: each round fires 1,024 events due at one instant (one
// split, one sort check, fireBatch), where most of a real run's events
// fire one to a tick. BenchmarkLoopSpread times a real schedule's shape.
func BenchmarkLoop(b *testing.B) {
	loop := sim.NewLoop()
	fn := func() {}
	// Warm the slot pool and the wheel's buckets.
	for i := 0; i < 64; i++ {
		loop.After(time.Millisecond, fn)
	}
	loop.RunUntilIdle()

	if allocs := testing.AllocsPerRun(200, func() {
		loop.After(time.Millisecond, fn)
		loop.RunUntilIdle()
	}); allocs != 0 {
		b.Fatalf("After+fire allocates %.1f per op, want 0", allocs)
	}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		loop.After(time.Microsecond, fn)
		if i&1023 == 1023 {
			loop.RunUntilIdle()
		}
	}
	loop.RunUntilIdle()
	b.StopTimer()
	nsPerEvent := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
	reportBench("BenchmarkLoop", map[string]float64{
		"ns_per_event":  nsPerEvent,
		"allocs_per_op": 0,
	})

	// Regression gate: when CI supplies the previous commit's numbers,
	// fail on a >20% ns/event increase (baselines are hardware-specific,
	// so the gate only runs when the env var is set).
	if path := os.Getenv("HOTPATH_BASELINE"); path != "" {
		data, err := os.ReadFile(path)
		if err != nil {
			b.Logf("HOTPATH_BASELINE unreadable, skipping gate: %v", err)
			return
		}
		var baseline map[string]map[string]float64
		if err := json.Unmarshal(data, &baseline); err != nil {
			b.Logf("HOTPATH_BASELINE unparsable, skipping gate: %v", err)
			return
		}
		if want := baseline["BenchmarkLoop"]["ns_per_event"]; want > 0 && nsPerEvent > 1.2*want {
			b.Fatalf("event-loop hot path regressed >20%%: %.1f ns/event vs baseline %.1f", nsPerEvent, want)
		}
	}
}

// spreadTimers timers keep 112 events pending on average, as a recorded
// h2/lte run (seed 1) does: a stopped timer not re-armed at once waits,
// idle, 21 times in 121.
const spreadTimers = 136

// spreadSchedule drives sim.Loop the way that run does: spreadTimers
// timers, each re-armed when it fires, with delays drawn to the run's
// quantiles, and a fire that draws another timer 0.912 times in 1. A
// drawn timer that is armed is stopped, so that 0.754 are stopped a fire
// and 43% of the events scheduled are stopped before they fire, and is
// re-armed at once 79 times in 100; one that is idle is armed. The draws
// are made up front, so the loop is all that is timed.
type spreadSchedule struct {
	loop   *sim.Loop
	timers [spreadTimers]spreadTimer
	draws  [4096]spreadDraw
	next   int
	// fired counts the fires of this Run, which stops at left; armed,
	// stopped and pending (Loop.Pending summed at each fire) are totals.
	fired, left, armed, stopped, pending int
}

type spreadDraw struct {
	delay, again time.Duration // the fired timer's next delay; the stopped one's
	stop         int           // the timer a fire stops, or −1
	rearm        bool          // whether the stopped timer is re-armed at once
}

type spreadTimer struct {
	s     *spreadSchedule
	t     sim.Timer
	armed bool
}

func (t *spreadTimer) arm(d time.Duration) {
	t.t, t.armed = t.s.loop.AfterCall(d, t), true
	t.s.armed++
}

// Call fires t: re-arm it, then stop (and maybe re-arm) or arm the timer
// the draw names.
func (t *spreadTimer) Call() {
	s := t.s
	d := &s.draws[s.next%len(s.draws)]
	s.next++
	s.pending += s.loop.Pending()
	t.arm(d.delay)
	if d.stop >= 0 {
		u := &s.timers[d.stop]
		if u.armed {
			u.t.Stop()
			u.armed = false
			s.stopped++
			if d.rearm {
				u.arm(d.again)
			}
		} else {
			u.arm(d.again)
		}
	}
	if s.fired++; s.fired == s.left {
		s.loop.Stop()
	}
}

// spreadDelay maps u in [0, 1] onto the recorded delays: log-linear
// between q0 20 µs, q10 0.57 ms, q50 40 ms, q90 200 ms and q100 1 s.
func spreadDelay(u float64) time.Duration {
	q := [...]float64{0, 0.1, 0.5, 0.9, 1}
	d := [...]float64{20e3, 570e3, 40e6, 200e6, 1e9}
	i := 1
	for i < len(q)-1 && u > q[i] {
		i++
	}
	return time.Duration(d[i-1] * math.Pow(d[i]/d[i-1], (u-q[i-1])/(q[i]-q[i-1])))
}

func newSpreadSchedule(rng *sim.RNG) *spreadSchedule {
	s := &spreadSchedule{loop: sim.NewLoop()}
	for i := range s.draws {
		s.draws[i] = spreadDraw{delay: spreadDelay(rng.Float64()), again: spreadDelay(rng.Float64()), stop: -1, rearm: rng.Bool(0.79)}
		if rng.Bool(0.912) {
			s.draws[i].stop = rng.Intn(spreadTimers)
		}
	}
	for i := range s.timers {
		s.timers[i].s = s
		s.timers[i].arm(spreadDelay(rng.Float64()))
	}
	return s
}

// run fires n events.
func (s *spreadSchedule) run(n int) {
	s.fired, s.left = 0, n
	s.loop.Run(sim.Forever)
}

// BenchmarkLoopSpread times sim.Loop on the shape of a recorded
// schedule (spreadSchedule) rather than on BenchmarkLoop's batches, and
// asserts it is allocation-free. It reports ns/event per fired event and
// the mix it ran: the share of scheduled events stopped and the mean
// count pending. No gate reads it; CI does not run it.
//
//	go test -run '^$' -bench 'BenchmarkLoopSpread$' .
func BenchmarkLoopSpread(b *testing.B) {
	s := newSpreadSchedule(sim.NewRNG(1))
	s.run(20000) // to the steady state, and the slot pool grown
	if allocs := testing.AllocsPerRun(20, func() { s.run(1000) }); allocs != 0 {
		b.Fatalf("1,000 spread events allocate %.1f objects, want 0", allocs)
	}
	s.armed, s.stopped, s.pending = 0, 0, 0
	b.ResetTimer()
	s.run(b.N)
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/event")
	b.ReportMetric(float64(s.stopped)/float64(s.armed), "stopped/scheduled")
	b.ReportMetric(float64(s.pending)/float64(b.N), "pending")
}

// BenchmarkPageLoadsPerHour measures end-to-end simulation throughput in
// the unit the ROADMAP's city-scale arc budgets in: simulated page loads
// per wall-clock hour, on one machine, serially. Each iteration is a
// full experiment.Run — browser, proxy, TCP, radio-free WiFi path — over
// a Table 1 site slice with lean probing and a short think time, the
// configuration the population sweep uses for aggregate-only runs.
//
//	go test -run '^$' -bench 'BenchmarkPageLoadsPerHour$' -benchtime=5x .
func BenchmarkPageLoadsPerHour(b *testing.B) {
	opts := experiment.Options{
		Mode:      browser.ModeHTTP,
		Network:   experiment.NetWiFi,
		Sites:     webpage.Table1()[:6],
		ThinkTime: 10 * time.Second,
		LeanProbe: true,
	}
	pages := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opts.Seed = uint64(i + 1)
		res := experiment.Run(opts)
		pages += len(res.Records) - res.Incomplete
	}
	b.StopTimer()
	perHour := float64(pages) / b.Elapsed().Hours()
	b.ReportMetric(perHour, "pages/hour")
	reportBench("BenchmarkPageLoadsPerHour", map[string]float64{
		"page_loads_per_hour": perHour,
		"pages_per_run":       float64(pages) / float64(b.N),
	})
}

// BenchmarkTransfer times a one-MSS write→serialize→deliver→ack round
// trip over an established, warmed-up connection and asserts the pooled
// segment path stays within its 2-allocation budget.
func BenchmarkTransfer(b *testing.B) {
	loop := sim.NewLoop()
	pc := netem.ProfileWiFi()
	pc.Up.LossRate, pc.Down.LossRate = 0, 0
	path := netem.NewPath(loop, pc, sim.NewRNG(1), nil)
	nw := tcpsim.NewNetwork(loop, path)
	client, server := nw.NewConnPair(tcpsim.DefaultConfig(), tcpsim.DefaultConfig(), "bench", "d")
	client.OnDeliver(func(int) {})
	client.OnEstablished(func() {})
	client.Connect()
	loop.RunUntilIdle()
	if !client.Established() {
		b.Fatal("handshake did not complete")
	}

	mss := tcpsim.DefaultConfig().MSS
	// Warm the segment pool, event slots and per-connection queues.
	for i := 0; i < 200; i++ {
		server.Write(mss)
		loop.RunUntilIdle()
	}

	allocs := testing.AllocsPerRun(200, func() {
		server.Write(mss)
		loop.RunUntilIdle()
	})
	if allocs > 2 {
		b.Fatalf("segment round trip allocates %.1f per op, want <= 2", allocs)
	}

	b.ReportAllocs()
	b.SetBytes(int64(mss))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		server.Write(mss)
		loop.RunUntilIdle()
	}
	b.StopTimer()
	reportBench("BenchmarkTransfer", map[string]float64{
		"ns_per_roundtrip":     float64(b.Elapsed().Nanoseconds()) / float64(b.N),
		"allocs_per_roundtrip": allocs,
	})
}
