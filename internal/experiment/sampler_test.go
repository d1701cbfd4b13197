package experiment

import (
	"testing"

	"spdier/internal/browser"
)

// TestSamplesMatchFullWalk holds the telemetry sampler, which visits
// only proxy-side connections that can still have bytes in flight, to
// the walk it replaced: runMonolith (layering_test.go) still sums
// InFlightBytes over every connection the session ever opened, on every
// sample. ActiveConns is a maintained count on both sides; the walk it
// replaced lives in the browser's checker, which TestMain keeps on.
func TestSamplesMatchFullWalk(t *testing.T) {
	if testing.Short() {
		t.Skip("full runs")
	}
	for _, mode := range []browser.Mode{browser.ModeHTTP, browser.ModeSPDY} {
		mode := mode
		t.Run(string(mode), func(t *testing.T) {
			t.Parallel()
			opts := Options{Mode: mode, Network: Net3G, Seed: 23, LeanProbe: true}
			want, got := runMonolith(opts).Samples, Run(opts).Samples
			if len(got) != len(want) || len(got) < 2000 {
				t.Fatalf("%d samples, full walk has %d", len(got), len(want))
			}
			busy, peak := 0, 0
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("sample %d: %+v, full walk says %+v", i, got[i], want[i])
				}
				if want[i].InFlightBytes > 0 {
					busy++
				}
				if want[i].ActiveConns > peak {
					peak = want[i].ActiveConns
				}
			}
			if busy == 0 || peak == 0 {
				t.Fatalf("nothing to compare: %d samples with bytes in flight, peak %d connections", busy, peak)
			}
		})
	}
}
