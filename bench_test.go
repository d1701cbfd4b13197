// Package spdier_test is the benchmark harness: one benchmark per table
// and figure of the paper (each regenerates that result inside the
// simulator and reports its headline number via b.ReportMetric), the
// ablations DESIGN.md calls out, and micro-benchmarks for the hot paths
// (SPDY framing, header compression, the event loop, the TCP model).
//
//	go test -bench=. -benchmem
//	go test -bench=BenchmarkFig3 -benchtime=3x
package spdier_test

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"spdier/internal/browser"
	"spdier/internal/experiment"
	"spdier/internal/netem"
	"spdier/internal/rrc"
	"spdier/internal/sim"
	"spdier/internal/spdy"
	"spdier/internal/tcpsim"
	"spdier/internal/webpage"
)

// benchExperiment runs one registered experiment per iteration with a
// single seed per condition and surfaces its metrics. Each requested
// metric gets its own b.Run sub-benchmark so `-bench Fig3/HTTP` can
// target one number and the per-metric timings don't smear together.
func benchExperiment(b *testing.B, id string, metrics ...string) {
	b.Helper()
	spec, ok := experiment.Get(id)
	if !ok {
		b.Fatalf("experiment %q not registered", id)
	}
	b.ResetTimer()
	if len(metrics) == 0 {
		for i := 0; i < b.N; i++ {
			spec.Run(experiment.Harness{Runs: 1, Seed: uint64(i + 1)})
		}
		return
	}
	for _, m := range metrics {
		b.Run(shortUnit(m), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r := spec.Run(experiment.Harness{Runs: 1, Seed: uint64(i + 1)})
				if v, ok := r.Metrics[m]; ok {
					b.ReportMetric(v, shortUnit(m))
				}
			}
		})
	}
}

func shortUnit(metric string) string {
	// Benchmark metric names cannot contain spaces.
	out := make([]rune, 0, len(metric))
	for _, r := range metric {
		switch {
		case r == ' ' || r == ',' || r == '(' || r == ')':
			out = append(out, '_')
		default:
			out = append(out, r)
		}
	}
	return string(out)
}

// --- one benchmark per table and figure ---

func BenchmarkTable1Catalog(b *testing.B) { benchExperiment(b, "table1") }
func BenchmarkFig3PageLoad3G(b *testing.B) {
	benchExperiment(b, "fig3", "HTTP mean PLT", "SPDY mean PLT")
}
func BenchmarkFig4PageLoadWiFi(b *testing.B) {
	benchExperiment(b, "fig4", "HTTP mean PLT", "SPDY mean PLT")
}
func BenchmarkFig5ObjectBreakdown(b *testing.B) {
	benchExperiment(b, "fig5", "http mean init", "spdy mean wait")
}
func BenchmarkFig6RequestPatterns(b *testing.B) { benchExperiment(b, "fig6") }
func BenchmarkFig7TestPages(b *testing.B) {
	benchExperiment(b, "fig7", "http PLT, same domain", "spdy PLT, same domain")
}
func BenchmarkFig8ProxyQueue(b *testing.B) {
	benchExperiment(b, "fig8", "origin wait, mean", "proxy queue delay, mean")
}
func BenchmarkFig9Throughput(b *testing.B) {
	benchExperiment(b, "fig9", "HTTP/SPDY busy-transfer ratio")
}
func BenchmarkFig10BytesInFlight(b *testing.B) {
	benchExperiment(b, "fig10", "pages where more-inflight protocol is faster")
}
func BenchmarkFig11CwndTrace(b *testing.B) {
	benchExperiment(b, "fig11", "retransmission events", "cwnd max")
}
func BenchmarkFig12IdleZoom(b *testing.B) {
	benchExperiment(b, "fig12", "idle restarts (cwnd→IW) in window")
}
func BenchmarkFig13RetxBursts(b *testing.B) {
	benchExperiment(b, "fig13", "HTTP mean retransmissions/run", "SPDY mean retransmissions/run")
}
func BenchmarkFig14PingKeepalive(b *testing.B) {
	benchExperiment(b, "fig14", "SPDY retx reduction from ping")
}
func BenchmarkFig15SlowStartAfterIdle(b *testing.B) {
	benchExperiment(b, "fig15", "spdy mean PLT disabled")
}
func BenchmarkFig16LTE(b *testing.B) {
	benchExperiment(b, "fig16", "HTTP mean PLT", "SPDY mean PLT")
}
func BenchmarkFig17LTETrace(b *testing.B) {
	benchExperiment(b, "fig17", "retransmissions/run (LTE SPDY)")
}
func BenchmarkFig18RRCMachines(b *testing.B) { benchExperiment(b, "fig18") }
func BenchmarkTable2TCPVariants(b *testing.B) {
	benchExperiment(b, "table2", "cubic spdy max cwnd", "reno spdy max cwnd")
}
func BenchmarkMultiConn(b *testing.B) {
	benchExperiment(b, "multiconn", "SPDY mean PLT, 20 sessions")
}
func BenchmarkRTTReset(b *testing.B) {
	benchExperiment(b, "rttreset", "spdy PLT improvement")
}
func BenchmarkMetricsCache(b *testing.B) {
	benchExperiment(b, "metricscache", "http mean PLT cache off")
}
func BenchmarkPipelining(b *testing.B) {
	benchExperiment(b, "pipelining", "pipelining improvement over HTTP")
}
func BenchmarkLateBinding(b *testing.B) {
	benchExperiment(b, "latebinding", "late vs early improvement")
}

// --- ablations (DESIGN.md §4) ---

// BenchmarkAblationPromotionDelay sweeps the 3G promotion delay and
// reports retransmissions per run: the paper's pathology should vanish
// when the promotion is shorter than the RTO and grow with it.
func BenchmarkAblationPromotionDelay(b *testing.B) {
	for _, promo := range []time.Duration{0, 500 * time.Millisecond, 2 * time.Second, 4 * time.Second} {
		b.Run(fmt.Sprintf("promo=%v", promo), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				loop := sim.NewLoop()
				profile := rrc.Profile3G()
				profile.PromotionDelay[rrc.Idle3G] = promo
				profile.PromotionDelay[rrc.FACH] = promo * 3 / 4
				radio := rrc.NewMachine(loop, profile)
				pc := netem.Profile3G()
				pc.Up.LossRate, pc.Down.LossRate = 0, 0
				path := netem.NewPath(loop, pc, sim.NewRNG(uint64(i+1)), radio)
				nw := tcpsim.NewNetwork(loop, path)
				client, server := nw.NewConnPair(tcpsim.DefaultConfig(), tcpsim.DefaultConfig(), "ab", "d")
				client.OnDeliver(func(int) {})
				client.OnEstablished(func() { server.Write(200_000) })
				client.Connect()
				loop.Run(30 * sim.Second)
				// Idle long enough to sleep the radio, then resume.
				resume := loop.Now().Add(25 * time.Second)
				loop.At(resume, func() { server.Write(200_000) })
				loop.Run(resume.Add(60 * time.Second))
				b.ReportMetric(float64(server.Retransmits), "retx")
			}
		})
	}
}

// BenchmarkAblationDependencyDepth sweeps page script intensity: deeper
// dependency chains should stretch SPDY's request waves (Figure 6).
func BenchmarkAblationDependencyDepth(b *testing.B) {
	for _, jscss := range []float64{0, 20, 80} {
		b.Run(fmt.Sprintf("jscss=%.0f", jscss), func(b *testing.B) {
			spec := webpage.SiteSpec{
				Index: 99, Category: "synthetic", TotalObjs: 120,
				AvgSizeKB: 1200, Domains: 10, TextObjs: 5, JSCSS: jscss,
				ImgsOther: 115 - jscss,
			}
			for i := 0; i < b.N; i++ {
				res := experiment.Run(experiment.Options{
					Mode: browser.ModeSPDY, Network: Net3GAlias,
					Seed:  uint64(i + 1),
					Sites: []webpage.SiteSpec{spec},
				})
				rec := res.Records[0]
				var first, last float64
				for _, or := range rec.Objects {
					t := or.Requested.Sub(rec.Start).Seconds()
					if first == 0 || t < first {
						first = t
					}
					if t > last {
						last = t
					}
				}
				b.ReportMetric(last-first, "req-span-s")
				b.ReportMetric(rec.PLT().Seconds(), "plt-s")
			}
		})
	}
}

// Net3GAlias avoids importing the experiment constant under a clash-free
// name in this package.
const Net3GAlias = experiment.Net3G

// BenchmarkAblationInitialCwnd sweeps IW (the RFC 6928 debate in §7).
func BenchmarkAblationInitialCwnd(b *testing.B) {
	for _, iw := range []float64{3, 10, 32} {
		b.Run(fmt.Sprintf("iw=%.0f", iw), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				loop := sim.NewLoop()
				path := netem.NewPath(loop, netem.ProfileWiFi(), sim.NewRNG(uint64(i+1)), nil)
				nw := tcpsim.NewNetwork(loop, path)
				scfg := tcpsim.DefaultConfig()
				scfg.InitialCwnd = iw
				client, server := nw.NewConnPair(tcpsim.DefaultConfig(), scfg, "iw", "d")
				var done sim.Time
				total := 0
				client.OnDeliver(func(n int) {
					total += n
					if total == 120_000 {
						done = loop.Now()
					}
				})
				client.OnEstablished(func() { server.Write(120_000) })
				client.Connect()
				loop.Run(20 * sim.Second)
				b.ReportMetric(done.Seconds()*1000, "transfer-ms")
			}
		})
	}
}

// --- sweep harness: serial vs parallel vs cached ---

// sweepBench is the condition the runner benchmarks fan out: a full
// 20-site HTTP session per seed.
func sweepBench(b *testing.B, parallel int) {
	b.Helper()
	h := experiment.Harness{Runs: 4, Seed: 1}
	base := experiment.Options{Mode: browser.ModeHTTP, Network: experiment.NetWiFi}
	for i := 0; i < b.N; i++ {
		// A fresh runner per iteration so the cache cannot mask the
		// simulation cost being compared.
		runs := 0
		experiment.NewRunner(parallel).SweepEach(h, base, func(*experiment.Result) { runs++ })
		b.ReportMetric(float64(runs), "runs")
	}
}

func BenchmarkSweepSerial(b *testing.B)   { sweepBench(b, 1) }
func BenchmarkSweepParallel(b *testing.B) { sweepBench(b, 0) }

// BenchmarkSweepCached measures replaying a memoized sweep: after the
// first iteration every lookup is a cache hit.
func BenchmarkSweepCached(b *testing.B) {
	h := experiment.Harness{Runs: 4, Seed: 1}
	base := experiment.Options{Mode: browser.ModeHTTP, Network: experiment.NetWiFi}
	r := experiment.NewRunner(0)
	r.SweepEach(h, base, func(*experiment.Result) {}) // warm the cache
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.SweepEach(h, base, func(*experiment.Result) {})
	}
	b.StopTimer()
	s := r.CacheStats()
	b.ReportMetric(s.HitRate()*100, "hit%")
}

// --- micro-benchmarks ---

func BenchmarkSPDYFramerDataThroughput(b *testing.B) {
	var buf bytes.Buffer
	f := spdy.NewFramer(&buf)
	payload := make([]byte, 8<<10)
	b.SetBytes(int64(len(payload)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := f.WriteFrame(spdy.DataFrame{StreamID: 1, Data: payload}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSPDYHeaderCompression(b *testing.B) {
	o := spdy.NewSizeOracle()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h := spdy.RequestHeaders("GET", "http", "www.example.com", fmt.Sprintf("/obj/%d", i), "ua")
		o.FrameSize(spdy.SynStream{StreamID: uint32(i*2 + 1), Headers: h})
	}
}

func BenchmarkSPDYFrameRoundTrip(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		tx := spdy.NewFramer(&buf)
		rx := spdy.NewFramer(&buf)
		tx.WriteFrame(spdy.SynStream{StreamID: 1, Headers: spdy.Headers{":method": "GET", ":path": "/"}})
		if _, err := rx.ReadFrame(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEventLoopThroughput(b *testing.B) {
	loop := sim.NewLoop()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		loop.After(time.Microsecond, func() {})
		if i%1024 == 0 {
			loop.RunUntilIdle()
		}
	}
	loop.RunUntilIdle()
}

func BenchmarkTCPSimBulkTransfer(b *testing.B) {
	// Simulated megabytes per wall-clock second: the simulator's core cost.
	b.SetBytes(1_000_000)
	for i := 0; i < b.N; i++ {
		loop := sim.NewLoop()
		path := netem.NewPath(loop, netem.ProfileWiFi(), sim.NewRNG(uint64(i+1)), nil)
		nw := tcpsim.NewNetwork(loop, path)
		client, server := nw.NewConnPair(tcpsim.DefaultConfig(), tcpsim.DefaultConfig(), "bulk", "d")
		client.OnDeliver(func(int) {})
		client.OnEstablished(func() { server.Write(1_000_000) })
		client.Connect()
		loop.Run(sim.Forever)
	}
}

func BenchmarkFullPageLoadSimulated(b *testing.B) {
	page := webpage.Generate(webpage.Table1()[6], sim.NewRNG(1))
	for i := 0; i < b.N; i++ {
		res := experiment.Run(experiment.Options{
			Mode: browser.ModeSPDY, Network: experiment.Net3G,
			Seed:  uint64(i + 1),
			Pages: []*webpage.Page{page},
		})
		b.ReportMetric(res.Records[0].PLT().Seconds(), "plt-s")
	}
}

func BenchmarkRNG(b *testing.B) {
	r := sim.NewRNG(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Uint64()
	}
}

func BenchmarkPageGeneration(b *testing.B) {
	spec := webpage.Table1()[14] // the 323-object site
	for i := 0; i < b.N; i++ {
		webpage.Generate(spec, sim.NewRNG(uint64(i)))
	}
}
