// Streaming sweeps: SweepStats, SweepEach and SweepStream, the three
// callers of the runner's one seed-ordered fan-out.
//
// A full Result retains a probe trace, telemetry samples and the page
// graph (~2 MB per condition even after the columnar squeeze), so keeping
// every Result of a sweep caps how many simulated users fit in memory.
// The aggregate path distills each finished run into a RunStats — a few
// hundred bytes of exact per-run aggregates — and releases the Result
// immediately. RunStats still carries the per-run PLT vector (~20
// floats), so experiments reconstruct their flat sample vectors in seed
// order and every downstream statistic is bit-identical to the
// store-everything path; what is dropped is only the bulky machinery no
// converted experiment reads.
package experiment

import (
	"time"

	"spdier/internal/tcpsim"
	"spdier/internal/trace"
)

// RunStats is the bounded-size distillation of one Result: everything
// the sweep-style experiments aggregate across runs, and nothing else.
// All fields are exact — identical whether derived from a full-trace or
// a lean (rare-only probe) Result.
type RunStats struct {
	Seed uint64

	// PLTs holds page load times in seconds, in visit order, skipping
	// incomplete pages; Sites holds the matching 1-based Table 1 site
	// index per entry. Concatenating PLTs across runs in seed order
	// reproduces the store-everything sample vectors bit-for-bit.
	PLTs  []float64
	Sites []int

	Incomplete int
	Retx       int
	Spurious   int
	RadioMJ    float64
	DurationS  float64

	// Per-cause retransmission ledger (the -exp recovery matrix). RTORetx
	// and FastRetx partition the paper-era causes; TLPProbes, RACKRetx and
	// FrtoUndos count fix-arm activity and are zero with the arms off.
	// Retx above remains the wire total (RTO + fast + RACK + TLP probes).
	RTORetx   int
	FastRetx  int
	TLPProbes int
	RACKRetx  int
	FrtoUndos int

	// Probe aggregates (Table 2, Figure 13).
	MeanCwnd float64
	MaxCwnd  float64
	// RetxConns counts connections with at least one retransmission;
	// RetxPerConn and TopConnRetxShare are meaningful when it is > 0.
	RetxConns           int
	RetxPerConn         float64
	TopConnRetxShare    float64
	SingleConnBurstFrac float64

	// Telemetry aggregates (Figure 13, Table 2).
	PeakConns int
	// TpAvgBps is the mean of the positive 1-second throughput bins
	// (valid when TpHasPos); TpMaxBps is their maximum.
	TpAvgBps float64
	TpHasPos bool
	TpMaxBps float64
}

// retxBurstWindow is the clustering window Figure 13 uses.
const retxBurstWindow = 500 * time.Millisecond

// NewRunStats distills a Result. The derivations repeat the experiments'
// own per-run loops exactly, so converted experiments report
// bit-identically to their store-everything versions.
func NewRunStats(res *Result) *RunStats {
	rs := &RunStats{
		Seed:       res.Opts.Seed,
		Incomplete: res.Incomplete,
		RadioMJ:    res.RadioMJ,
		DurationS:  res.Duration.Seconds(),
	}
	for i, rec := range res.Records {
		if rec == nil {
			continue
		}
		rs.Sites = append(rs.Sites, res.VisitOrder[i]+1)
		rs.PLTs = append(rs.PLTs, rec.PLT().Seconds())
	}
	if res.Recorder != nil {
		rs.Retx = res.Recorder.Retransmissions()
		rs.Spurious = res.Recorder.SpuriousRetransmissions()
		rs.RTORetx = res.Recorder.Count(tcpsim.EvRetransmit)
		rs.FastRetx = res.Recorder.Count(tcpsim.EvFastRetx)
		rs.TLPProbes = res.Recorder.Count(tcpsim.EvTLPProbe)
		rs.RACKRetx = res.Recorder.Count(tcpsim.EvRACKRetx)
		rs.FrtoUndos = res.Recorder.Count(tcpsim.EvFRTOUndo)
		rs.MeanCwnd = res.Recorder.MeanCwnd()
		rs.MaxCwnd = res.Recorder.MaxCwnd()
		byConn := map[string]int{}
		res.Recorder.Each(func(s tcpsim.ProbeSample) bool {
			if s.Event == tcpsim.EvRetransmit || s.Event == tcpsim.EvFastRetx {
				byConn[s.ConnID]++
			}
			return true
		})
		total, top := 0, 0
		for _, n := range byConn {
			total += n
			if n > top {
				top = n
			}
		}
		rs.RetxConns = len(byConn)
		if total > 0 {
			rs.RetxPerConn = float64(total) / float64(len(byConn))
			rs.TopConnRetxShare = float64(top) / float64(total)
		}
		bursts := trace.FindRetxBursts(res.Recorder, retxBurstWindow)
		rs.SingleConnBurstFrac = trace.SingleConnBurstFraction(bursts)
	}
	for _, s := range res.Samples {
		if s.ActiveConns > rs.PeakConns {
			rs.PeakConns = s.ActiveConns
		}
	}
	ts := res.ThroughputSeries()
	var sum, n float64
	for _, v := range ts.Bins {
		if v > 0 {
			sum += v
			n++
			if v > rs.TpMaxBps {
				rs.TpMaxBps = v
			}
		}
	}
	if n > 0 {
		rs.TpAvgBps = sum / n
		rs.TpHasPos = true
	}
	return rs
}

// RunStats executes (or replays) one run under a worker token and
// returns its aggregates. Aggregates are memoized separately from full
// Results: a cached full Result is distilled for free; otherwise the run
// executes with a lean (rare-only) probe recorder and the Result is
// released immediately — aggregate-only sweeps never materialize the
// columnar trace.
func (r *Runner) RunStats(opts Options) *RunStats {
	a := r.acquire()
	defer r.release(a)
	return r.runStatsOn(a, opts)
}

// runStatsOn is RunStats on the arena of a token the caller holds.
func (r *Runner) runStatsOn(a *runArena, opts Options) *RunStats {
	statsOpts := opts
	statsOpts.LeanProbe = false // lean and full runs share one aggregate entry
	key, ok := CacheKey(statsOpts)
	if !ok {
		return NewRunStats(run(opts, a, nil))
	}
	return r.stats.getOrRun(key, func() *RunStats {
		if res, hit := r.cache.peek(key); hit {
			return NewRunStats(res)
		}
		lean := opts
		lean.LeanProbe = true
		return NewRunStats(run(lean, a, nil))
	})
}

// SweepStats runs one condition across h.Runs seeds, returning per-run
// aggregates ordered by seed: bit-for-bit identical regardless of
// parallelism, and flat in memory — each worker releases its Result the
// moment it is distilled.
func (r *Runner) SweepStats(h Harness, base Options) []*RunStats {
	r.beginSweep(h.Runs)
	out := make([]*RunStats, 0, h.Runs)
	fanOut(r.parallel, h.Runs, 0, func(i int) *RunStats {
		rs := r.RunStats(h.seeded(base, i))
		r.noteRun()
		return rs
	}, func(rs *RunStats) { out = append(out, rs) })
	return out
}

// SweepEach streams full Results through fn strictly in seed order,
// releasing each one afterwards — for the few experiments whose flat fold
// order over full Results cannot be regrouped per run without perturbing
// float low bits. Seed i+parallel starts once fn has consumed seed i, so
// at most `parallel` Results are alive while fn observes exactly the
// sequence a serial sweep would produce.
func (r *Runner) SweepEach(h Harness, base Options, fn func(*Result)) {
	r.beginSweep(h.Runs)
	fanOut(r.parallel, h.Runs, r.parallel, func(i int) *Result {
		res := r.Run(h.seeded(base, i))
		r.noteRun()
		return res
	}, fn)
}

// Folder accumulates RunStats into mergeable state — typically a struct
// of stats.Moments / stats.QuantileSketch / stats.Hist fields.
type Folder interface {
	// Fold incorporates one run.
	Fold(*RunStats)
	// Merge incorporates another shard's accumulated state. The argument
	// is always a Folder produced by the same constructor.
	Merge(Folder)
}

// sweepShardSize fixes how many consecutive seeds each shard accumulator
// folds. It is a pure function of nothing — the shard partition depends
// only on h.Runs — so shard boundaries, and therefore every float fold
// order, are identical at any parallelism: serial and sharded-parallel
// sweeps produce bit-identical merged state. The process fabric reuses
// exactly this partition, which is why a fabric sweep's merged state is
// bit-identical to the in-process engine at any worker count.
const sweepShardSize = 16

// ShardCount reports how many fixed-size shards a sweep of runs seeds
// partitions into — the same partition SweepStream folds and merges.
func ShardCount(runs int) int {
	if runs <= 0 {
		return 0
	}
	return (runs + sweepShardSize - 1) / sweepShardSize
}

// ShardRange reports the half-open seed-index range [lo, hi) of shard
// si in a sweep of runs seeds.
func ShardRange(runs, si int) (lo, hi int) {
	lo = si * sweepShardSize
	hi = lo + sweepShardSize
	if hi > runs {
		hi = runs
	}
	if lo > hi {
		lo = hi
	}
	return lo, hi
}

// FillShard folds shard si's runs into f exactly as the in-process
// sweep path does: consecutive seeds, fold order ascending, one lean
// aggregate run per seed, all under one worker token and on its arena.
// Worker processes and the in-process engine both go through this one
// function, so their accumulator states are identical by construction.
// onRun, when non-nil, is invoked after each folded run (the fabric
// worker streams a progress frame from it).
func (r *Runner) FillShard(h Harness, base Options, si int, f Folder, onRun func()) {
	a := r.acquire()
	defer r.release(a)
	lo, hi := ShardRange(h.Runs, si)
	for i := lo; i < hi; i++ {
		f.Fold(r.runStatsOn(a, h.seeded(base, i)))
		r.noteRun()
		if onRun != nil {
			onRun()
		}
	}
}

// SweepStream folds one condition's runs into shard accumulators and
// merges the shards in index order as they finish. Workers fold their
// seed range sequentially and release each Result immediately, so memory
// stays flat no matter how large h.Runs grows. When a ShardExecutor is
// installed (SetShardExecutor), each shard is offered to it first — the
// process fabric computes it in a worker process — and a declined shard
// folds in-process under the runner's own pool; either way the merge
// consumes shards strictly in index order, so the result is bit-identical.
func (r *Runner) SweepStream(h Harness, base Options, newShard func() Folder) Folder {
	r.beginSweep(h.Runs)
	fill := func(si int) Folder {
		f := newShard()
		r.FillShard(h, base, si, f, nil)
		return f
	}
	width, run := r.parallel, fill
	if ex := r.shardExecutor(); ex != nil {
		// Dispatch width: the runner's own pool, widened to the executor's
		// worker-process count — a dispatch goroutine for a remote shard
		// just waits on a pipe, so the in-process bound would strand
		// worker processes idle. The executor's slot pool bounds remote
		// compute; a declined shard folds under a token of the runner's
		// pool, which FillShard takes.
		if wp, ok := ex.(interface{ Workers() int }); ok && wp.Workers() > width {
			width = wp.Workers()
		}
		run = func(si int) Folder {
			if f := ex.ExecuteShard(h, base, si, newShard); f != nil {
				return f
			}
			return fill(si)
		}
	}
	var acc Folder
	fanOut(width, ShardCount(h.Runs), 0, run, func(f Folder) {
		if acc == nil {
			acc = f
		} else {
			acc.Merge(f)
		}
	})
	if acc == nil {
		return newShard()
	}
	return acc
}

// The report-side helpers below reduce a sweep's RunStats in seed order,
// preserving the exact append orders so experiments stay bit-identical.

// pltBySiteStats maps 1-based site index to PLT seconds across runs.
func pltBySiteStats(rs []*RunStats) map[int][]float64 {
	out := make(map[int][]float64)
	for _, r := range rs {
		for i, site := range r.Sites {
			out[site] = append(out[site], r.PLTs[i])
		}
	}
	return out
}

// allPLTStats concatenates every run's PLTs in seed order.
func allPLTStats(rs []*RunStats) []float64 {
	var out []float64
	for _, r := range rs {
		out = append(out, r.PLTs...)
	}
	return out
}

// meanRetxStats averages per-run retransmission totals.
func meanRetxStats(rs []*RunStats) float64 {
	var s float64
	for _, r := range rs {
		s += float64(r.Retx)
	}
	return s / float64(len(rs))
}
