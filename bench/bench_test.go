package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"spdier/internal/fabric"
	"spdier/internal/webpage"
)

// TestMain lets the test binary stand in for the bench command, which
// re-executes itself as a fabric worker, as a set-up child and as a
// per-workload child.
func TestMain(m *testing.M) {
	if os.Getenv(fabricWorkerEnv) == "1" {
		os.Exit(fabric.WorkerMain(os.Stdin, os.Stdout))
	}
	if os.Getenv(benchMainEnv) == "1" {
		os.Exit(benchMain(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{Name: "run", ID: 0, Parent: -1, Start: 0, End: 100},
		{Name: "a", ID: 1, Parent: 0, Start: 10, End: 40},
		{Name: "b", ID: 2, Parent: 0, Start: 30, End: 60},  // overlaps a: counted once
		{Name: "c", ID: 3, Parent: 0, Start: 90, End: 120}, // runs past the parent: clipped
		{Name: "a.leaf", ID: 4, Parent: 1, Start: 15, End: 20},
	}
	want := []int64{100 - 50 - 10, 30 - 5, 30, 30, 5}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Fatalf("selfTimes = %v, want %v", got, want)
	}
}

func TestTracerNesting(t *testing.T) {
	var off *tracer
	off.end(off.begin("nothing")) // a nil tracer records nothing and must not panic
	tr := newTracer()
	tr.setRun("w/1")
	outer := tr.begin("run")
	inner := tr.begin("experiment.run")
	tr.end(inner)
	tr.end(outer)
	if tr.spans[inner].Parent != outer || tr.spans[outer].Parent != -1 || tr.spans[inner].Run != "w/1" {
		t.Fatalf("bad nesting: %+v", tr.spans)
	}
	if ns, n := tr.total("run"); n != 1 || ns != tr.spans[outer].dur() {
		t.Fatalf("total(run) = %d, %d", ns, n)
	}
}

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{5, 50}, {19, 50}, {39, 50}, {40, 75}, {99, 75}, {100, 90}, {199, 90}, {200, 95}, {1000, 99}, {10000, 99.9}} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
	samples := make([]float64, 60)
	for i := range samples {
		samples[i] = float64(i)
	}
	_, tail, note := runPercentiles(samples)
	if !strings.HasPrefix(note, "p75") || tail != 44.25 {
		t.Errorf("60 samples: tail %v (%q), want the p75 and a note saying so", tail, note)
	}
}

// TestLedgerShares holds the ledger's arithmetic against figures worked
// out by hand: two conditions, one of them using a sizer the other does
// not, 2e8 ns of run time in all.
func TestLedgerShares(t *testing.T) {
	l := newLedger()
	for i, c := range workloads[4].conds {
		cl := &condLedger{opts: c.opts, runs: 1, pages: 20, runNS: 1e8, fired: 1e5, conns: 10 + i, requests: 2000}
		cl.up.Sent, cl.down.Sent = 10000, 20000
		cl.unit = unitCosts{
			simNS: 30, netemNS: 100, segNS: 500,
			sizerNS:     map[string]float64{"httpwire": 2000, "spdy": 9000, "h2": 600},
			sizerAllocs: map[string]float64{"httpwire": 26, "spdy": 13, "h2": 6.5},
		}
		l.conds[c.label], l.order = cl, append(l.order, c.label)
	}
	m := l.metrics()
	want := map[string]float64{
		"sim.self_share":      2 * 1e5 * 30 / 2e8,
		"netem.self_share":    2 * 30000 * 100 / 2e8,
		"tcpsim.self_share":   2 * 20000 * 500 / 2e8,
		"httpwire.self_share": 2 * 2000 * 2000 / 2e8, // http/3g's requests only
		"spdy.self_share":     2 * 2000 * 9000 / 2e8, // spdy/3g's requests only
		"h2.self_share":       0,
		// An unused sizer keeps its unit cost.
		"h2.ns_per_header_size": 600,
		// What is left of 2e8 ns after 6e6 + 6e6 + 2e7 + 8e6 + 3.6e7, over 40 pages.
		"browser.residual_ms_per_page": (2e8 - 7.6e7) / 1e6 / 40,
	}
	for name, w := range want {
		if math.Abs(m[name]-w) > 1e-12 {
			t.Errorf("%s = %v, want %v", name, m[name], w)
		}
	}
}

// TestTimesScaleToTheReferenceSpeed: wall time is scaled by the loops'
// wall time and CPU time by the loops' CPU time, each by the mean over
// the round's loops, and the raw medians go along unchanged.
func TestTimesScaleToTheReferenceSpeed(t *testing.T) {
	r := round{
		pages: 100,
		units: []sample{{wall: time.Second, cpu: 400 * time.Millisecond}, {wall: time.Second, cpu: 600 * time.Millisecond}},
		// The box ran at half speed by the wall clock (steal), and at the
		// reference speed by CPU time.
		calib: []sample{{wall: calibRef, cpu: calibRef / 2}, {wall: 3 * calibRef, cpu: 3 * calibRef / 2}},
	}
	if w, c := slowdown(r.calib); w != 2 || c != 1 {
		t.Fatalf("slowdown = %v wall, %v cpu, want 2 and 1", w, c)
	}
	m := endToEnd([]round{r}, []float64{0.2}, []float64{0.1}, 12)
	for name, want := range map[string][2]float64{
		"pages_per_s":     {100, 50}, // 100 pages in 2 s, of which the box stole half
		"cpu_ms_per_page": {10, 10},
		"setup_s":         {0.1, 0.2},
	} {
		if got := m[name]; math.Abs(got.Value-want[0]) > 1e-9 || math.Abs(got.Raw-want[1]) > 1e-9 {
			t.Errorf("%s = %v scaled, %v raw, want %v and %v", name, got.Value, got.Raw, want[0], want[1])
		}
	}
	if m["peak_rss_mb"].Raw != 0 || m["peak_rss_mb"].Value != 12 {
		t.Errorf("peak_rss_mb is not a time and is not scaled: %+v", m["peak_rss_mb"])
	}
}

// TestLoopsInsideAUnitAreTakenOut: the sweep's loops run inside its timed
// passes, so a pass's time is what is left without them, and a sweep
// round carries one loop per run it simulated.
func TestLoopsInsideAUnitAreTakenOut(t *testing.T) {
	u := sample{wall: time.Second, cpu: 2 * time.Second}
	loops := []sample{{wall: 4 * time.Millisecond, cpu: 3 * time.Millisecond}, {wall: 6 * time.Millisecond, cpu: 5 * time.Millisecond}}
	if got, want := u.without(loops, 2), (sample{wall: 995 * time.Millisecond, cpu: 1992 * time.Millisecond}); got != want {
		t.Errorf("on two workers: %+v, want %+v", got, want)
	}
	if got, want := u.without(loops, 1), (sample{wall: 990 * time.Millisecond, cpu: 1992 * time.Millisecond}); got != want {
		t.Errorf("on one worker: %+v, want %+v", got, want)
	}

	b := &bench{w: findWorkload("sweep-3g"), seed: 7, chk: newChecker(nil), cal: newCalibrator()}
	r := b.sweepRound(2, 2, 1)
	if b.chk.failed != 0 || len(r.units) != 3 || len(r.calib) != 2*2+2 {
		t.Fatalf("%d failed, %d units, %d loops; want 0, 3 and 6: %v", b.chk.failed, len(r.units), len(r.calib), b.chk.problems)
	}
	for _, l := range r.calib {
		if l.wall <= 0 || l.cpu <= 0 {
			t.Errorf("a loop took %+v", l)
		}
	}
}

func TestDigestsStableAcrossRuns(t *testing.T) {
	w := findWorkload("h2-lte")
	chk := newChecker(nil)
	b := &bench{w: w, seed: 7, sites: webpage.Table1(), chk: chk, cal: newCalibrator(), fold: newPLTFolder()}
	b.armRound(2)
	first := map[string]string{}
	for k, v := range chk.seen {
		first[k] = v
	}
	b.armRound(2)
	if chk.failed != 0 || chk.attempted != 4 || !reflect.DeepEqual(first, chk.seen) {
		t.Fatalf("two rounds disagree: %d failed of %d, %v", chk.failed, chk.attempted, chk.problems)
	}

	// A digest that moves between rounds, a digest that differs from the
	// committed one, and an incomplete page each fail the run.
	chk.run("h2/lte/7", 1, 0)
	against := newChecker(map[string]string{"k": "0000000000000001"})
	against.run("k", 2, 0)
	against.run("absent", 3, 0)
	against.run("k2", 4, 1)
	if chk.failed != 1 || against.failed != 3 {
		t.Fatalf("wrong outputs passed: %d and %d failed, want 1 and 3", chk.failed, against.failed)
	}
	cached := newChecker(nil)
	cached.run("k", 5, 0)
	cached.replay("k", 5, 0)
	if cached.attempted != 1 || cached.failed != 0 {
		t.Fatalf("a correct replay counted as a run")
	}
	cached.replay("k", 6, 0)
	if cached.attempted != 2 || cached.failed != 1 {
		t.Fatalf("a wrong replay passed")
	}
}

func TestVerdict(t *testing.T) {
	if d, s := verdict(100, 104, 0.10); s != "ok" || math.Abs(d-0.04) > 1e-12 {
		t.Errorf("4%% apart under a 10%% bound: %v %s", d, s)
	}
	if _, s := verdict(100, 88, 0.10); s != "unresolved" {
		t.Errorf("12%% apart under a 10%% bound must be unresolved, got %s", s)
	}
}

// benchmarkFile mirrors BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func TestBenchmarkJSONMatchesTheCode(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bf); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(bf.EndToEnd, endToEndDefs) {
		t.Errorf("end_to_end differs from endToEndDefs:\n%v\n%v", bf.EndToEnd, endToEndDefs)
	}
	if !reflect.DeepEqual(bf.PerLayer, perLayerDefs) {
		t.Errorf("per_layer differs from perLayerDefs")
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the code", len(bf.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bf.Workloads[i].Name != w.name || bf.Workloads[i].Why != w.why {
			t.Errorf("workload %d: %+v, want %s: %s", i, bf.Workloads[i], w.name, w.why)
		}
		if len(w.why) > 200 {
			t.Errorf("%s: why is %d characters", w.name, len(w.why))
		}
	}
	if !reflect.DeepEqual(bf.Paths, []string{"bench"}) || bf.RunSeconds < 1 || bf.RunSeconds > 60 {
		t.Errorf("paths %v, run_seconds %d", bf.Paths, bf.RunSeconds)
	}
}

// TestSmoke runs every workload's smoke pass, traced, the way the
// driver calls it: set-up child, both passes, replay, the probes with
// the fabric worker re-exec, the trace file and the contract line.
func TestSmoke(t *testing.T) {
	dir := t.TempDir()
	start := time.Now()
	for _, w := range workloads {
		var stdout, stderr bytes.Buffer
		tracePath := filepath.Join(dir, w.name+".trace.json")
		outPath := filepath.Join(dir, w.name+".json")
		code := benchMain([]string{"--workload", w.name, "--seed", "1", "--seconds", "1", "--trace", tracePath, "-smoke", "-out", outPath}, &stdout, &stderr)
		if code != 0 {
			t.Fatalf("%s: exit %d\n%s\n%s", w.name, code, stdout.String(), stderr.String())
		}
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		var line struct {
			Correct   bool `json:"correct"`
			Attempted int  `json:"attempted"`
			Failed    int  `json:"failed"`
			Metrics   map[string]struct {
				Value *float64 `json:"value"`
				Unit  string   `json:"unit"`
			} `json:"metrics"`
		}
		dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&line); err != nil {
			t.Fatalf("%s: last line is not the contract object: %v\n%s", w.name, err, lines[len(lines)-1])
		}
		if !line.Correct || line.Failed != 0 || line.Attempted < 1 {
			t.Errorf("%s: %+v", w.name, line)
		}
		if len(line.Metrics) != len(perLayerDefs) {
			t.Errorf("%s: %d traced metrics, want %d", w.name, len(line.Metrics), len(perLayerDefs))
		}
		for _, def := range perLayerDefs {
			m, ok := line.Metrics[def.Name]
			if !ok || m.Value == nil || m.Unit != def.Unit || math.IsNaN(*m.Value) || math.IsInf(*m.Value, 0) {
				t.Errorf("%s: metric %s missing or malformed: %+v", w.name, def.Name, m)
			}
		}

		var rep report
		data, err := os.ReadFile(outPath)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(data, &rep); err != nil {
			t.Fatal(err)
		}
		for _, def := range endToEndDefs {
			if m := rep.EndToEnd[def.Name]; !(m.Value > 0) || m.N < 1 || m.Bound != def.Bound {
				t.Errorf("%s: end-to-end %s = %+v", w.name, def.Name, m)
			}
		}
		// No layer may be priced below nothing (a subtraction gone wrong)
		// or above the run it is part of (a count applied twice). The
		// residual is not held to a sign here: on spdy-3g the sizer alone
		// is over half the run, and two seeds' noise can push the layers'
		// sum a few percent past the run time.
		for _, layer := range ledgerLayers {
			if v := rep.PerLayer[layer+".self_share"].Value; v < 0 || v > 1 {
				t.Errorf("%s: %s.self_share = %v, want within [0, 1]", w.name, layer, v)
			}
		}
		if rep.PerLayer["fabric.shards_remote"].Value != 1 {
			t.Errorf("%s: the fabric worker did not compute the shard", w.name)
		}
		if rep.Env.GoVersion == "" || rep.Env.Cores < 1 || rep.Env.Timestamp == "" {
			t.Errorf("%s: env block incomplete: %+v", w.name, rep.Env)
		}

		var tf traceFile
		if data, err = os.ReadFile(tracePath); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(data, &tf); err != nil {
			t.Fatal(err)
		}
		for _, name := range []string{"run", "webpage.generate", "experiment.run", "experiment.distill", "stats.fold", "replay", "sim", "netem", "tcpsim", "stats.encode", "stats.decode", "stats.merge", "fabric.shard"} {
			if _, ok := tf.SelfNS[name]; !ok {
				t.Errorf("%s: no %q span in the trace", w.name, name)
			}
		}
	}
	// About 8 s alone on two cores; logged, not asserted, because the
	// box's speed is not this test's to judge.
	t.Logf("the smoke pass took %v", time.Since(start))
}

// A untraced smoke run prints exactly the end-to-end metrics.
func TestContractLineUntraced(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := benchMain([]string{"--workload", "h2-lte", "--seed", "3", "--seconds", "1", "--trace", "0", "-smoke"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var line struct {
		Metrics map[string]json.RawMessage `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		t.Fatal(err)
	}
	if len(line.Metrics) != len(endToEndDefs) {
		t.Fatalf("%d metrics, want the %d end-to-end ones: %s", len(line.Metrics), len(endToEndDefs), lines[len(lines)-1])
	}
	for _, def := range endToEndDefs {
		if _, ok := line.Metrics[def.Name]; !ok {
			t.Errorf("%s missing", def.Name)
		}
	}
}

func TestUnknownWorkloadFails(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := benchMain([]string{"-workload", "nope"}, &stdout, &stderr); code == 0 || stdout.Len() != 0 {
		t.Fatalf("exit %d, stdout %q", code, stdout.String())
	}
}
