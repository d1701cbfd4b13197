package experiment

import (
	"runtime"
	"runtime/debug"
	"slices"
	"testing"

	"spdier/internal/browser"
)

// TestRunAllocationsPerPage holds each arm's one-shot Run, the call the
// benchmark's arm workloads make with no arena, to a budget of heap
// objects a page: five seeds after one warm-up run, lean probe, pages
// generated inside Run. Every budget is the count measured when it was
// set (in the comment beside it), plus 5%. A slab that stops taking its
// records' place moves the count by far more: with a heap object per
// wire unit, SACK or ranges array and beacon record, the four arms read
// 85.6, 66.6, 66.3 and 157.0; with a page's working memory allocated
// per page (its fetch slab, working record and revealer bits, the
// generator's scratch and the page's name, two closures a visit), 57.1,
// 39.6, 42.7 and 108.4; with the run's record stores grown page by page
// (each page's object records, Objects slice, PageRecord and proxy log
// entries, the fetch slab and generator scratch regrown to each page
// larger than any before it, the proxy's log doubling), 44.1, 26.8,
// 30.0 and 95.6.
func TestRunAllocationsPerPage(t *testing.T) {
	if info, ok := debug.ReadBuildInfo(); ok && slices.Contains(info.Settings, debug.BuildSetting{Key: "-race", Value: "true"}) {
		t.Skip("sync.Pool drops a quarter of its Puts at random under the race detector, so the SPDY arm's count varies")
	}
	for _, c := range []struct {
		mode    browser.Mode
		network NetworkKind
		budget  float64
	}{
		{browser.ModeHTTP, NetWiFi, 40.1}, // 38.2
		{browser.ModeSPDY, Net3G, 21.9},   // 20.9
		{browser.ModeH2, NetLTE, 25.3},    // 24.1
		{browser.ModeQUIC, Net3G, 94.3},   // 89.8
	} {
		opts := Options{Mode: c.mode, Network: c.network, LeanProbe: true}
		Run(opts)
		pages := 0
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for seed := uint64(1); seed <= 5; seed++ {
			opts.Seed = seed
			pages += len(Run(opts).Pages)
		}
		runtime.ReadMemStats(&after)
		per := float64(after.Mallocs-before.Mallocs) / float64(pages)
		t.Logf("%s/%s: %.1f objects a page over %d pages (budget %.1f)", c.mode, c.network, per, pages, c.budget)
		if per > c.budget {
			t.Errorf("%s/%s: a page allocates %.1f objects, budget %.1f", c.mode, c.network, per, c.budget)
		}
	}
}
