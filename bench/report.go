package main

import (
	"encoding/json"
	"fmt"
	"io"

	"spdier/internal/stats"
)

// metricDef fixes a metric's name, unit and direction. An end-to-end
// metric also carries the share of the parent's median by which it may
// worsen before a change counts as a regression.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEndDefs are what a user of the simulator sees. BENCHMARK.json
// repeats them; bench_test.go keeps the two in step. fail_share is the
// seventh end-to-end figure: it is reported as failed ÷ attempted and
// any increase is a regression, so it has no place in a list whose
// entries must never be 0.
var endToEndDefs = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"pages_per_s", "1/s", "higher", 0.25},
	{"cpu_ms_per_page", "ms", "lower", 0.25},
	{"allocs_per_page", "count", "lower", 0.02},
	{"alloc_kb_per_page", "KiB", "lower", 0.10},
	{"peak_rss_mb", "MiB", "lower", 0.20},
}

// perLayerDefs name every ledger entry; layers are the internal/
// packages. Simulated statistics are exact and must not move under a
// change that only makes the simulator faster.
var perLayerDefs = []metricDef{
	{Name: "sim.events_per_page", Unit: "count", Better: "lower"},
	{Name: "sim.stack_ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "sim.ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "sim.self_share", Unit: "share", Better: "lower"},
	{Name: "netem.packets_per_page", Unit: "count", Better: "lower"},
	{Name: "netem.ns_per_packet", Unit: "ns", Better: "lower"},
	{Name: "netem.drops_per_kpkt", Unit: "count", Better: "lower"},
	{Name: "netem.self_share", Unit: "share", Better: "lower"},
	{Name: "rrc.promotions_per_page", Unit: "count", Better: "lower"},
	{Name: "rrc.energy_mj_per_page", Unit: "mJ", Better: "lower"},
	{Name: "tcpsim.conns_per_page", Unit: "count", Better: "lower"},
	{Name: "tcpsim.conn_setup_us", Unit: "us", Better: "lower"},
	{Name: "tcpsim.conn_setup_allocs", Unit: "count", Better: "lower"},
	{Name: "tcpsim.ns_per_segment", Unit: "ns", Better: "lower"},
	{Name: "tcpsim.allocs_per_segment", Unit: "count", Better: "lower"},
	{Name: "tcpsim.retx_per_page", Unit: "count", Better: "lower"},
	{Name: "tcpsim.spurious_per_page", Unit: "count", Better: "lower"},
	{Name: "tcpsim.self_share", Unit: "share", Better: "lower"},
	{Name: "httpwire.ns_per_size", Unit: "ns", Better: "lower"},
	{Name: "httpwire.allocs_per_size", Unit: "count", Better: "lower"},
	{Name: "httpwire.self_share", Unit: "share", Better: "lower"},
	{Name: "spdy.ns_per_frame_size", Unit: "ns", Better: "lower"},
	{Name: "spdy.allocs_per_frame_size", Unit: "count", Better: "lower"},
	{Name: "spdy.self_share", Unit: "share", Better: "lower"},
	{Name: "h2.ns_per_header_size", Unit: "ns", Better: "lower"},
	{Name: "h2.allocs_per_header_size", Unit: "count", Better: "lower"},
	{Name: "h2.self_share", Unit: "share", Better: "lower"},
	{Name: "proxy.requests_per_page", Unit: "count", Better: "lower"},
	{Name: "proxy.queue_delay_ms_mean", Unit: "ms", Better: "lower"},
	{Name: "browser.sim_plt_mean_s", Unit: "s", Better: "lower"},
	{Name: "browser.residual_ms_per_page", Unit: "ms", Better: "lower"},
	{Name: "webpage.objects_per_page", Unit: "count", Better: "lower"},
	{Name: "webpage.generate_us_per_page", Unit: "us", Better: "lower"},
	{Name: "experiment.run_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "experiment.run_ms_p90", Unit: "ms", Better: "lower"},
	{Name: "experiment.samples", Unit: "count", Better: "higher"},
	{Name: "experiment.fixed_cost_us_per_run", Unit: "us", Better: "lower"},
	{Name: "experiment.distill_us_per_run", Unit: "us", Better: "lower"},
	{Name: "experiment.cache_hit_us", Unit: "us", Better: "lower"},
	{Name: "experiment.cache_hit_rate", Unit: "share", Better: "higher"},
	{Name: "experiment.cores_busy", Unit: "count", Better: "higher"},
	{Name: "stats.fold_ns_per_page", Unit: "ns", Better: "lower"},
	{Name: "stats.encode_us", Unit: "us", Better: "lower"},
	{Name: "stats.decode_us", Unit: "us", Better: "lower"},
	{Name: "stats.merge_us", Unit: "us", Better: "lower"},
	{Name: "stats.shard_bytes", Unit: "count", Better: "lower"},
	{Name: "fabric.shard_overhead_ms", Unit: "ms", Better: "lower"},
	{Name: "fabric.shards_remote", Unit: "count", Better: "higher"},
	{Name: "fabric.respawns", Unit: "count", Better: "lower"},
	{Name: "bench.trace_overhead_share", Unit: "share", Better: "lower"},
}

// metric is one reported number with the samples behind it.
type metric struct {
	Value  float64 `json:"value"`
	Unit   string  `json:"unit"`
	N      int     `json:"n"`
	Q1     float64 `json:"q1"`
	Median float64 `json:"median"`
	Q3     float64 `json:"q3"`
	Bound  float64 `json:"bound,omitempty"`
	// Raw is the median as this box measured it, on the three metrics
	// whose value is scaled to the reference speed (see calib.go).
	Raw float64 `json:"raw,omitempty"`
	// Note says what the value is when its name cannot, such as which
	// percentile the sample count supported.
	Note string `json:"note,omitempty"`
}

// summarize reports the median of samples with its quartiles.
func summarize(samples []float64, def metricDef) metric {
	q := stats.Quantiles(samples, 0.25, 0.5, 0.75)
	return metric{Value: q[1], Unit: def.Unit, N: len(samples), Q1: q[0], Median: q[1], Q3: q[2], Bound: def.Bound}
}

// tailPercentile is the highest percentile of the ladder that still has
// at least ten of n samples beyond it; with fewer than twenty samples
// only the median is supported.
func tailPercentile(n int) float64 {
	best := 500
	for _, permille := range []int{750, 900, 950, 990, 999} {
		if n*(1000-permille) >= 10*1000 {
			best = permille
		}
	}
	return float64(best) / 10
}

// report is one workload's result.
type report struct {
	Workload string   `json:"workload"`
	Why      string   `json:"why"`
	Seed     uint64   `json:"seed"`
	Env      envBlock `json:"env"`
	Rounds   int      `json:"rounds"`
	// Slowdown is the median over rounds of how much slower than the
	// reference speed the box ran, by the wall clock (see calib.go).
	Slowdown  float64           `json:"slowdown"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	FailShare float64           `json:"fail_share"`
	Problems  []string          `json:"problems,omitempty"`
	EndToEnd  map[string]metric `json:"end_to_end"`
	PerLayer  map[string]metric `json:"per_layer,omitempty"`
	// Claim is always null: this benchmark is the instrument, and the
	// change that adds it claims no gain.
	Claim any `json:"claim"`
}

// endToEnd turns the untraced rounds into the end-to-end metrics. Each
// round is the same fixed amount of work, so each gives one sample, and
// the value is the median over rounds. The three times are at the
// reference speed: wall time divided by the round's wall slowdown, CPU
// time by its CPU slowdown (see calib.go). Their raw medians go along.
func endToEnd(rounds []round, setupRaw, setup []float64, rssMB float64) map[string]metric {
	samples := map[string][]float64{"setup_s": setup, "peak_rss_mb": {rssMB}}
	raw := map[string][]float64{"setup_s": setupRaw}
	for _, r := range rounds {
		pages := float64(r.pages)
		wallSlow, cpuSlow := slowdown(r.calib)
		wall, cpu := r.wall().Seconds(), r.cpu().Seconds()
		samples["pages_per_s"] = append(samples["pages_per_s"], pages/(wall/wallSlow))
		raw["pages_per_s"] = append(raw["pages_per_s"], pages/wall)
		samples["cpu_ms_per_page"] = append(samples["cpu_ms_per_page"], cpu/cpuSlow*1e3/pages)
		raw["cpu_ms_per_page"] = append(raw["cpu_ms_per_page"], cpu*1e3/pages)
		samples["allocs_per_page"] = append(samples["allocs_per_page"], float64(r.mallocs)/pages)
		samples["alloc_kb_per_page"] = append(samples["alloc_kb_per_page"], float64(r.bytes)/1024/pages)
	}
	out := map[string]metric{}
	for _, def := range endToEndDefs {
		m := summarize(samples[def.Name], def)
		if r, ok := raw[def.Name]; ok {
			m.Raw = stats.Median(r)
		}
		out[def.Name] = m
	}
	return out
}

// medianSlowdown is the median over rounds of the wall slowdown.
func medianSlowdown(rounds []round) float64 {
	xs := make([]float64, len(rounds))
	for i, r := range rounds {
		xs[i], _ = slowdown(r.calib)
	}
	return stats.Median(xs)
}

// print lists every metric by name with its unit.
func (r *report) print(w io.Writer) {
	fmt.Fprintf(w, "workload %s  seed %d  rounds %d  %s\n", r.Workload, r.Seed, r.Rounds, r.Why)
	fmt.Fprintf(w, "env: %d cores, GOMAXPROCS %d, %s, kernel %s, commit %s, %s\n",
		r.Env.Cores, r.Env.GOMAXPROCS, r.Env.GoVersion, r.Env.Kernel, r.Env.Commit, r.Env.Timestamp)
	fmt.Fprintf(w, "slowdown %.3f (calibration loop ÷ its reference time); setup_s, pages_per_s and cpu_ms_per_page are at the reference speed, raw beside them\n", r.Slowdown)
	for _, def := range endToEndDefs {
		m := r.EndToEnd[def.Name]
		fmt.Fprintf(w, "  %-34s %14.4f %-6s n=%-3d q1=%.4f q3=%.4f bound=%.0f%%",
			def.Name, m.Value, m.Unit, m.N, m.Q1, m.Q3, m.Bound*100)
		if m.Raw != 0 {
			fmt.Fprintf(w, " raw=%.4f", m.Raw)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "  %-34s %14.4f %-6s %d failed of %d attempted, bound: any increase\n",
		"fail_share", r.FailShare, "share", r.Failed, r.Attempted)
	for _, p := range r.Problems {
		fmt.Fprintf(w, "  FAILED %s\n", p)
	}
	if r.PerLayer == nil {
		return
	}
	for _, def := range perLayerDefs {
		m := r.PerLayer[def.Name]
		fmt.Fprintf(w, "  %-34s %14.4f %-6s n=%d %s\n", def.Name, m.Value, m.Unit, m.N, m.Note)
	}
}

// contractLine is the one JSON object the benchmark driver reads from
// the last line of standard output.
func (r *report) contractLine(traced bool) ([]byte, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	src := r.EndToEnd
	if traced {
		src = r.PerLayer
	}
	metrics := map[string]value{}
	for name, m := range src {
		metrics[name] = value{m.Value, m.Unit}
	}
	return json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, metrics})
}
