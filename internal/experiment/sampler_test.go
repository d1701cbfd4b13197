package experiment

import (
	"slices"
	"testing"

	"spdier/internal/browser"
	"spdier/internal/stats"
)

// samplerModes and samplerOptions are the two 3G sessions whose
// telemetry samples were held, sample by sample, to a walk that summed
// InFlightBytes over every connection the session ever opened; their
// hash is pinned in testdata/pins.json (samples/<mode>).
var samplerModes = []browser.Mode{browser.ModeHTTP, browser.ModeSPDY}

func samplerOptions(mode browser.Mode) Options {
	return Options{Mode: mode, Network: Net3G, Seed: 23, LeanProbe: true}
}

// TestSamplesMatchFullWalk keeps the pinned sample hashes from being
// vacuous: the telemetry sampler, which visits only proxy-side
// connections that can still have bytes in flight, must take at least
// 2,000 samples, some with bytes in flight and some with connections
// open. That each sample equals the full walk's is TestReferenceDigests'
// samples/<mode> row. ActiveConns is a maintained count; the walk it
// replaced lives in the browser's checker, which TestMain keeps on.
func TestSamplesMatchFullWalk(t *testing.T) {
	if testing.Short() {
		t.Skip("full runs")
	}
	for _, mode := range samplerModes {
		t.Run(string(mode), func(t *testing.T) {
			t.Parallel()
			samples := Run(samplerOptions(mode)).Samples
			if len(samples) < 2000 {
				t.Fatalf("%d samples, want at least 2000", len(samples))
			}
			busy, peak := 0, 0
			for _, s := range samples {
				if s.InFlightBytes > 0 {
					busy++
				}
				if s.ActiveConns > peak {
					peak = s.ActiveConns
				}
			}
			if busy == 0 || peak == 0 {
				t.Fatalf("nothing to compare: %d samples with bytes in flight, peak %d connections", busy, peak)
			}
		})
	}
}

// TestThroughputSeriesSizedOnce: the series is binned into an array made
// once, for the last sample's second, and holds what binning the samples
// one Add at a time into an empty series holds, bit for bit.
func TestThroughputSeriesSizedOnce(t *testing.T) {
	res := Run(samplerOptions(browser.ModeSPDY))
	got := res.ThroughputSeries()
	want := stats.NewBinSeries(1.0)
	var prev int64
	for _, smp := range res.Samples {
		want.Add(smp.At.Seconds(), float64(smp.DownlinkBytes-prev))
		prev = smp.DownlinkBytes
	}
	if len(got.Bins) == 0 || cap(got.Bins) != len(got.Bins) {
		t.Fatalf("%d bins in an array of %d: want the array made for the last sample's second", len(got.Bins), cap(got.Bins))
	}
	if !slices.Equal(got.Bins, want.Bins) {
		t.Fatal("the series' bins differ from binning the samples one Add at a time")
	}
}
