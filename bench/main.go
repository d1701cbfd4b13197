// Command bench is the repo's benchmark: simulated page loads per wall
// second and per CPU second for each protocol arm × network, with a
// cost ledger per layer under it. See README.md in this directory.
//
//	go run ./bench                      every workload, each in its own process
//	go run ./bench -workload spdy-3g    one workload
//	go run ./bench -trace out.json      adds the traced pass and the ledger
//	go run ./bench -selfcheck           two back-to-back sets of the same code
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"time"

	"spdier/internal/experiment"
	"spdier/internal/fabric"
	"spdier/internal/stats"
	"spdier/internal/webpage"
)

// digestsJSON holds the default-seed digests: workload → key → digest.
//
//go:embed testdata/digests.json
var digestsJSON []byte

const (
	digestsPath = "bench/testdata/digests.json" // from the repo root
	buildDir    = ".bench_build"                // what a run leaves behind
	defaultSeed = 1
	// benchMainEnv makes a test binary act as this command, so the
	// children the benchmark re-executes work under `go test` too.
	benchMainEnv = "SPDIER_BENCH_MAIN"
	// setupsPerRound is how many set-up children are timed after each
	// untraced round.
	setupsPerRound = 4
)

func main() {
	if os.Getenv(fabricWorkerEnv) == "1" {
		os.Exit(fabric.WorkerMain(os.Stdin, os.Stdout))
	}
	os.Exit(benchMain(os.Args[1:], os.Stdout, os.Stderr))
}

// config is the parsed command line.
type config struct {
	workload      string
	seed          uint64
	seconds       float64
	trace         string // "0" off, "1" on with a default file, else the file
	out           string
	cpu           int
	smoke         bool
	selfcheck     bool
	updateDigests bool
	setupOnly     bool
}

func (c config) traced() bool { return c.trace != "" && c.trace != "0" }

func benchMain(args []string, stdout, stderr io.Writer) int {
	var cfg config
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&cfg.workload, "workload", "", "run one workload in this process (default: all, one child process each)")
	fs.Uint64Var(&cfg.seed, "seed", defaultSeed, "first run seed S; a round uses S..S+K-1")
	fs.Float64Var(&cfg.seconds, "seconds", 20, "how long one workload measures")
	fs.StringVar(&cfg.trace, "trace", "0", "0: off; 1 or a file name: add the traced pass and write its spans")
	fs.StringVar(&cfg.out, "out", "", "write the results as JSON here (default "+buildDir+"/results.json when running every workload)")
	fs.IntVar(&cfg.cpu, "cpu", 0, "GOMAXPROCS (0: leave as is)")
	fs.BoolVar(&cfg.smoke, "smoke", false, "one round of two seeds per workload")
	fs.BoolVar(&cfg.selfcheck, "selfcheck", false, "run two back-to-back sets and compare them against the bounds")
	fs.BoolVar(&cfg.updateDigests, "update-digests", false, "rewrite "+digestsPath+" from one round at the default seed")
	fs.BoolVar(&cfg.setupOnly, "setup-only", false, "set up -workload and exit (the timed child behind setup_s)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "bench: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	if cfg.cpu > 0 {
		runtime.GOMAXPROCS(cfg.cpu)
	}
	var err error
	switch {
	case cfg.updateDigests:
		err = updateDigests(stdout)
	case cfg.selfcheck:
		err = selfcheck(cfg, stdout, stderr)
	case cfg.workload == "":
		err = runAll(cfg, stdout, stderr)
	default:
		err = runOne(cfg, stdout)
	}
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	return 0
}

func loadDigests() (map[string]map[string]string, error) {
	all := map[string]map[string]string{}
	if err := json.Unmarshal(digestsJSON, &all); err != nil {
		return nil, fmt.Errorf("parsing the committed digests: %w", err)
	}
	return all, nil
}

// setUp is everything between process start and the first timed round:
// the site catalog, the committed digests, and one warm-up run.
func setUp(w *workload, seed uint64) ([]webpage.SiteSpec, map[string]string, error) {
	sites := webpage.Table1()
	all, err := loadDigests()
	if err != nil {
		return nil, nil, err
	}
	opts := w.conds[0].opts
	opts.Seed = seed
	opts.Pages = experiment.GeneratePages(sites, seed)
	opts.LeanProbe = true
	if res := experiment.Run(opts); res.Incomplete > 0 {
		return nil, nil, fmt.Errorf("warm-up run left %d pages incomplete", res.Incomplete)
	}
	// Only the default seed has committed digests to compare with.
	var committed map[string]string
	if seed == defaultSeed {
		committed = all[w.name]
		if committed == nil {
			return nil, nil, fmt.Errorf("no committed digests for %s; run -update-digests", w.name)
		}
	}
	return sites, committed, nil
}

// child re-executes this binary with args.
func child(args ...string) (*exec.Cmd, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self, args...)
	cmd.Env = append(os.Environ(), benchMainEnv+"=1")
	return cmd, nil
}

// timeSetups runs n fresh processes that set the workload up and exit,
// and returns how long each took from spawn to exit, in seconds.
func timeSetups(cfg config, n int) ([]float64, error) {
	var took []float64
	for i := 0; i < n; i++ {
		cmd, err := child("-setup-only", "-workload", cfg.workload, "-seed", fmt.Sprint(cfg.seed))
		if err != nil {
			return nil, err
		}
		cmd.Stderr = os.Stderr
		t0 := time.Now()
		if err := cmd.Run(); err != nil {
			return nil, fmt.Errorf("set-up child: %w", err)
		}
		took = append(took, time.Since(t0).Seconds())
	}
	return took, nil
}

// runOne measures one workload in this process, so that peak_rss_mb is
// the workload's own.
func runOne(cfg config, stdout io.Writer) error {
	w := findWorkload(cfg.workload)
	if w == nil {
		return fmt.Errorf("unknown workload %q", cfg.workload)
	}
	sites, committed, err := setUp(w, cfg.seed)
	if err != nil || cfg.setupOnly {
		return err
	}
	budget := time.Duration(cfg.seconds * float64(time.Second))
	if cfg.traced() {
		// The traced pass and the replay share the time with the
		// untraced pass, so a traced run lasts about as long.
		budget = budget * 2 / 5
	}
	b := &bench{w: w, seed: cfg.seed, sites: sites, chk: newChecker(committed), cal: newCalibrator(), fold: newPLTFolder()}
	// The set-ups are timed a few after each round and brought to the
	// reference speed by that round's loops: a loop of its own before a
	// child has nothing of the simulator before it, and read anything
	// from 0.75 to 2.8 while the children took the same 50 ms.
	setups := setupsPerRound
	if cfg.smoke {
		setups = 1
	}
	var setupRaw, setup []float64
	var setupErr error
	b.afterRound = func(r round) {
		took, terr := timeSetups(cfg, setups)
		if terr != nil && setupErr == nil {
			setupErr = terr
		}
		wallSlow, _ := slowdown(r.calib)
		for _, t := range took {
			setupRaw, setup = append(setupRaw, t), append(setup, t/wallSlow)
		}
	}
	rounds := b.measure(budget, cfg.smoke)
	if setupErr != nil {
		return setupErr
	}
	rep := &report{
		Workload: w.name, Why: w.why, Seed: cfg.seed, Env: readEnv(), Rounds: len(rounds),
		EndToEnd: endToEnd(rounds, setupRaw, setup, peakRSSMB()),
		Slowdown: medianSlowdown(rounds),
	}

	if cfg.traced() {
		tr := newTracer()
		layer, probeErr := tracedPass(b, tr, rounds, budget, cfg.smoke)
		if probeErr != nil {
			// A probe that could not produce or verify its output is a
			// failed operation, not a reason to lose the other numbers.
			b.chk.attempted++
			b.chk.failed++
			b.chk.problems = append(b.chk.problems, probeErr.Error())
		}
		rep.PerLayer = layer
		path := cfg.trace
		if path == "1" {
			path = filepath.Join(buildDir, "trace."+w.name+".json")
		}
		err = writeFile(path, func(p string) error { return tr.write(p, w.name, cfg.seed) })
		if err != nil {
			return err
		}
	}

	rep.Attempted, rep.Failed, rep.Problems = b.chk.attempted, b.chk.failed, b.chk.problems
	rep.Correct = rep.Failed == 0
	rep.FailShare = float64(rep.Failed) / float64(rep.Attempted)
	rep.print(stdout)
	if cfg.out != "" {
		err = writeJSON(cfg.out, rep)
		if err != nil {
			return err
		}
	}
	// Wrong output is reported in the result, as correct: false and a
	// failed count, not by the exit code: the result was produced.
	line, err := rep.contractLine(cfg.traced())
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return nil
}

// tracedPass repeats the workload with spans on, replays the work each
// layer did, runs the probes, and assembles every per-layer metric.
func tracedPass(b *bench, tr *tracer, untraced []round, budget time.Duration, smoke bool) (map[string]metric, error) {
	tb := &bench{w: b.w, seed: b.seed, sites: b.sites, chk: b.chk, cal: b.cal, fold: newPLTFolder(), tr: tr, led: newLedger()}
	traced := tb.measure(budget, smoke)

	// What is not one of the workload's own runs has no committed
	// digest; it is still checked for completeness and repeatability.
	side := newChecker(nil)
	defer func() {
		b.chk.attempted += side.attempted
		b.chk.failed += side.failed
		b.chk.problems = append(b.chk.problems, side.problems...)
	}()
	ledgerSeeds, probeSeeds, shardRuns := 4, 4, fabricShardRuns
	if smoke {
		ledgerSeeds, probeSeeds, shardRuns = 1, 2, 2
	}
	probe := untraced
	if b.w.sweep {
		// A parallel sweep cannot be spanned run by run from outside, so
		// the ledger takes serial runs of the sweep's conditions.
		tb.chk = side
		for i := 0; i < ledgerSeeds; i++ {
			for _, c := range b.w.conds {
				tb.runOnce(c, b.seed+uint64(i), &round{})
			}
		}
	} else {
		// An arm workload does not go through a Runner; a small sweep of
		// its condition prices the cache.
		pb := &bench{w: b.w, seed: b.seed, chk: side, cal: b.cal, tr: tr}
		probe = []round{pb.sweepRound(probeSeeds, 0, sweepReplays)}
	}
	b.runMS = append(b.runMS, tb.runMS...)
	tb.led.replay(tr, b.seed)

	vals := tb.led.metrics()
	var firstErr error
	note := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}

	genNS, _ := tr.total("webpage.generate")
	distillNS, runs := tr.total("experiment.distill")
	foldNS, _ := tr.total("stats.fold")
	var pages float64
	for _, label := range tb.led.order {
		pages += float64(tb.led.conds[label].pages)
	}
	vals["webpage.generate_us_per_page"] = float64(genNS) / 1e3 / pages
	vals["experiment.distill_us_per_run"] = float64(distillNS) / 1e3 / float64(runs)
	vals["stats.fold_ns_per_page"] = float64(foldNS) / pages
	vals["experiment.fixed_cost_us_per_run"] = fixedCostUS(b.w.conds[0], b.seed)

	codec, err := statsCodec(tr, tb.fold)
	note(err)
	vals["stats.encode_us"], vals["stats.decode_us"], vals["stats.merge_us"] = codec.encodeUS, codec.decodeUS, codec.mergeUS
	vals["stats.shard_bytes"] = float64(codec.shardBytes)

	fc, err := fabricProbe(tr, b.w.conds[0], b.seed, shardRuns)
	note(err)
	vals["fabric.shard_overhead_ms"] = fc.overheadMS
	vals["fabric.shards_remote"] = float64(fc.stats.ShardsRemote)
	vals["fabric.respawns"] = float64(fc.stats.Respawns)

	var replayNS, replayRuns, hitRate float64
	for _, r := range probe {
		replayNS += float64(r.replay.wall)
		replayRuns += float64(r.replayRuns)
		hitRate += r.hitRate / float64(len(probe))
	}
	vals["experiment.cache_hit_us"] = replayNS / 1e3 / replayRuns
	vals["experiment.cache_hit_rate"] = hitRate
	vals["experiment.cores_busy"] = coresBusy(b.w, untraced)
	vals["bench.trace_overhead_share"] = medianWall(traced)/medianWall(untraced) - 1
	p50, tail, tailNote := runPercentiles(b.runMS)
	vals["experiment.run_ms_p50"], vals["experiment.run_ms_p90"] = p50, tail
	vals["experiment.samples"] = float64(len(b.runMS))

	out := map[string]metric{}
	for _, def := range perLayerDefs {
		v, ok := vals[def.Name]
		if !ok {
			note(fmt.Errorf("per-layer metric %s was not produced", def.Name))
		}
		out[def.Name] = metric{Value: v, Unit: def.Unit, N: int(pages)}
	}
	p90 := out["experiment.run_ms_p90"]
	p90.Note = tailNote
	out["experiment.run_ms_p90"] = p90
	return out, firstErr
}

// coresBusy is CPU time ÷ wall time: over every run of an arm workload,
// over the parallel streamed pass of the sweep.
func coresBusy(w *workload, rounds []round) float64 {
	var cpu, wall time.Duration
	for _, r := range rounds {
		units := r.units
		if w.sweep {
			units = units[:len(w.conds)]
		}
		for _, u := range units {
			cpu += u.cpu
			wall += u.wall
		}
	}
	return cpu.Seconds() / wall.Seconds()
}

// medianWall is the median round's wall time in seconds at the reference
// speed.
func medianWall(rounds []round) float64 {
	walls := make([]float64, len(rounds))
	for i, r := range rounds {
		wallSlow, _ := slowdown(r.calib)
		walls[i] = r.wall().Seconds() / wallSlow
	}
	return stats.Median(walls)
}

// writeFile creates path's directory and lets write fill the file.
func writeFile(path string, write func(string) error) error {
	if dir := filepath.Dir(path); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	return write(path)
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return writeFile(path, func(p string) error { return os.WriteFile(p, append(data, '\n'), 0o644) })
}
