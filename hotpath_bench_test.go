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
// allocation-free.
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
