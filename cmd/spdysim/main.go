// Command spdysim regenerates the tables and figures of "Towards a
// SPDY'ier Mobile Web?" (CoNEXT 2013) inside the packet-level simulator.
//
// Usage:
//
//	spdysim -list                 # show available experiments
//	spdysim -exp fig3             # run one experiment
//	spdysim -exp all              # run everything (parallel + cached)
//	spdysim -exp fig3 -runs 10    # more seeds per condition
//	spdysim -exp all -parallel 8  # bound the worker pool explicitly
//	spdysim -har run.har -mode spdy -network 3g
//	                              # one full session, exported as HAR
//	spdysim -exp scale -runs 100000 -fabric 8 -checkpoint ckpt/
//	                              # million-run-scale sweep across 8
//	                              # worker processes, resumable
//	spdysim -exp scale -runs 100000 -fabric 8 -checkpoint ckpt/ -resume
//	                              # replay the journal, run missing shards
//
// Sweeps fan their seeds out across a worker pool (GOMAXPROCS workers by
// default, -parallel overrides) and memoize each (network, mode, flags,
// seed) condition, so -exp all computes every condition exactly once even
// though many experiments sweep the same baselines. Results are
// bit-for-bit identical to serial runs: each seed is an isolated
// deterministic simulation and output slices are ordered by seed.
// -fabric N additionally fans streaming-sweep shards out to N worker
// processes (re-execs of this binary); the shard-order merge keeps the
// output bit-identical at every worker count, and -checkpoint/-resume
// journal completed shards so a killed sweep continues where it stopped.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	rtrace "runtime/trace"
	"time"

	"spdier/internal/browser"
	"spdier/internal/experiment"
	"spdier/internal/fabric"
	"spdier/internal/trace"
)

func main() {
	var (
		exp      = flag.String("exp", "", "experiment ID (or 'all')")
		runs     = flag.Int("runs", 5, "seeds per condition")
		seed     = flag.Uint64("seed", 1, "base seed")
		parallel = flag.Int("parallel", 0, "max concurrent simulations per sweep (0 = GOMAXPROCS)")
		cachecap = flag.Int("cachecap", -1,
			"max memoized full runs held in memory (0 = unbounded, -1 = auto: 256, shrinking for large -runs)")
		progress = flag.Bool("progress", false, "print a live progress/ETA line for long sweeps to stderr")
		list     = flag.Bool("list", false, "list experiments")
		har      = flag.String("har", "", "run one session and write its page loads as a HAR archive to this file")
		mode     = flag.String("mode", "spdy", "protocol for -har runs: http, spdy, h2 or quic")
		network  = flag.String("network", "3g", "access network for -har runs: 3g, lte or wifi")

		fabricN = flag.Int("fabric", 0,
			"fan sweep shards out to this many worker processes (0 = in-process); results are bit-identical at any count")
		checkpoint = flag.String("checkpoint", "",
			"journal completed sweep shards to this directory (requires -fabric)")
		resume = flag.Bool("resume", false,
			"replay a -checkpoint journal, re-running only missing shards")
		fabricWorker = flag.Bool("fabric-worker", false,
			"internal: run as a fabric worker process (reads jobs on stdin, writes frames on stdout)")

		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile to this file on exit")
		traceout   = flag.String("trace", "", "write a runtime execution trace to this file")
	)
	flag.Parse()

	if *fabricWorker {
		// Hidden re-exec mode: the fabric coordinator spawns copies of
		// this binary with -fabric-worker and streams shard jobs over
		// stdin/stdout. Everything below (profiles, HAR, experiments)
		// belongs to the coordinator process only.
		os.Exit(fabric.WorkerMain(os.Stdin, os.Stdout))
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *traceout != "" {
		f, err := os.Create(*traceout)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		if err := rtrace.Start(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer rtrace.Stop()
	}
	if *memprofile != "" {
		// The heap profile is written after the sweeps complete, while the
		// result cache is still live — this is how the cache-entry retained
		// size reduction is measured.
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, err)
			}
		}()
	}

	if *har != "" {
		switch *network {
		case "3g", "lte", "wifi":
		default:
			fmt.Fprintf(os.Stderr, "unknown network %q: use 3g, lte or wifi\n", *network)
			os.Exit(2)
		}
		switch *mode {
		case "http", "spdy", "h2", "quic":
		default:
			fmt.Fprintf(os.Stderr, "unknown mode %q: use http, spdy, h2 or quic\n", *mode)
			os.Exit(2)
		}
		res := experiment.Run(experiment.Options{
			Mode:    browser.Mode(*mode),
			Network: experiment.NetworkKind(*network),
			Seed:    *seed,
		})
		f, err := os.Create(*har)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		if err := trace.WriteHAR(f, res.Records); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("wrote %d page loads (%s over %s) to %s\n", len(res.Records), *mode, *network, *har)
		return
	}

	if *list || *exp == "" {
		fmt.Println("experiments:")
		for _, s := range experiment.All() {
			fmt.Printf("  %-14s %s\n", s.ID, s.Title)
		}
		if *exp == "" {
			fmt.Println("\nrun one with: spdysim -exp <id>   (or -exp all)")
		}
		return
	}

	experiment.SetParallelism(*parallel)
	cacheCap := *cachecap
	if cacheCap < 0 {
		// Auto mode: the default capacity is generous for figure-style
		// small sweeps, but a large -runs sweep would fill it with
		// hundreds of full Results (~7 MB retained each). The streaming
		// experiments never need them resident, so squeeze the
		// full-Result cache hard and let the per-run aggregate cache
		// carry the scale.
		cacheCap = experiment.DefaultCacheCapacity
		if *runs > 48 {
			cacheCap = 16
		}
	}
	runner := experiment.DefaultRunner()
	runner.SetCacheCapacity(cacheCap)

	var coord *fabric.Coordinator
	if *checkpoint != "" && *fabricN <= 0 {
		fmt.Fprintln(os.Stderr, "-checkpoint requires -fabric N (the journal records fabric shards)")
		os.Exit(2)
	}
	if *fabricN > 0 {
		exe, err := os.Executable()
		if err != nil {
			fmt.Fprintf(os.Stderr, "cannot locate own binary for fabric re-exec: %v\n", err)
			os.Exit(1)
		}
		coord, err = fabric.NewCoordinator(fabric.Config{
			Workers:       *fabricN,
			WorkerCmd:     []string{exe, "-fabric-worker"},
			CheckpointDir: *checkpoint,
			Resume:        *resume,
			OnProgress:    runner.NoteExternalRuns,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer coord.Close()
		runner.SetShardExecutor(coord)
	}

	h := experiment.Harness{Runs: *runs, Seed: *seed}
	specs := experiment.All()
	if *exp != "all" {
		s, ok := experiment.Get(*exp)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q; use -list\n", *exp)
			os.Exit(1)
		}
		specs = []experiment.Spec{s}
	}
	wall := time.Now()
	if *progress {
		stop := make(chan struct{})
		done := make(chan struct{})
		go func() {
			defer close(done)
			t := time.NewTicker(time.Second)
			defer t.Stop()
			for {
				select {
				case <-stop:
					fmt.Fprintln(os.Stderr)
					return
				case <-t.C:
					runsDone, sd, st := runner.Progress()
					rate := float64(runsDone) / time.Since(wall).Seconds()
					eta := "?"
					if rate > 0 && st >= sd {
						eta = (time.Duration(float64(st-sd) / rate * float64(time.Second))).Round(time.Second).String()
					}
					fmt.Fprintf(os.Stderr, "\rprogress: %d runs done, %.1f runs/s, sweep %d/%d, sweep ETA %-8s",
						runsDone, rate, sd, st, eta)
				}
			}
		}()
		defer func() { close(stop); <-done }()
	}
	for _, s := range specs {
		start := time.Now()
		rep := s.Run(h)
		fmt.Println(rep.String())
		fmt.Printf("(%s completed in %v)\n\n", s.ID, time.Since(start).Round(time.Millisecond))
	}
	cs := runner.CacheStats()
	ss := runner.StreamCacheStats()
	fmt.Printf("total wall clock: %v over %d experiment(s), %d worker(s)\n",
		time.Since(wall).Round(time.Millisecond), len(specs), runner.Parallelism())
	fmt.Printf("sweep cache: %d unique condition(s) simulated, %d replayed from cache (%.0f%% hit rate)\n",
		cs.Misses, cs.Hits, 100*cs.HitRate())
	fmt.Printf("stream cache: %d per-run aggregate(s), %d replayed (%.0f%% hit rate)\n",
		ss.Misses, ss.Hits, 100*ss.HitRate())
	if coord != nil {
		fs := coord.Stats()
		fmt.Printf("fabric: %d worker(s), %d shard(s) computed remotely, %d replayed from journal, %d respawn(s)\n",
			coord.Workers(), fs.ShardsRemote, fs.ShardsReplayed, fs.Respawns)
	}
}
